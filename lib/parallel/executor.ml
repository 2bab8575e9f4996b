module Contended = Mitos_obs.Contended

(* One queue, one lock, one condition: an idle worker takes whatever
   task is next, so no task waits behind a busy worker while another
   sleeps. The producers submit a few tasks per pool batch, so the
   single lock is not a hot spot. *)
type t = {
  name : string;
  lock : Contended.t option;  (* [None] when inline: no queue to guard *)
  work : Condition.t;
  queue : (unit -> unit) Queue.t;
  pending : int Atomic.t;  (* queued + running *)
  stopping : bool Atomic.t;
  failures : int Atomic.t;
  mutable domains : unit Domain.t list;
}

let run_task t task = try task () with _ -> Atomic.incr t.failures

(* Exit only once the queue is empty under the lock with the stop flag
   up: a racing submit holds the lock too, so it either lands before
   the check (and is drained) or observes the flag and refuses. *)
let rec worker_loop t lock =
  Contended.lock lock;
  while Queue.is_empty t.queue && not (Atomic.get t.stopping) do
    Contended.wait lock t.work
  done;
  match Queue.take_opt t.queue with
  | None -> Contended.unlock lock
  | Some task ->
    Contended.unlock lock;
    run_task t task;
    Atomic.decr t.pending;
    worker_loop t lock

let create ?(name = "executor") ~workers () =
  if workers < 0 then invalid_arg "Executor.create: workers must be >= 0";
  let lock =
    if workers = 0 then None else Some (Contended.create ("executor:" ^ name))
  in
  let t =
    {
      name;
      lock;
      work = Condition.create ();
      queue = Queue.create ();
      pending = Atomic.make 0;
      stopping = Atomic.make false;
      failures = Atomic.make 0;
      domains = [];
    }
  in
  Option.iter
    (fun lock ->
      t.domains <-
        List.init workers (fun _ ->
            Domain.spawn (fun () -> worker_loop t lock)))
    lock;
  t

let refuse t =
  invalid_arg (Printf.sprintf "Executor.submit: %s is shut down" t.name)

let submit t task =
  match t.lock with
  | None ->
    if Atomic.get t.stopping then refuse t;
    run_task t task
  | Some lock ->
    Contended.lock lock;
    if Atomic.get t.stopping then begin
      Contended.unlock lock;
      refuse t
    end;
    Queue.add task t.queue;
    Atomic.incr t.pending;
    Condition.signal t.work;
    Contended.unlock lock

let pending t = Atomic.get t.pending
let failures t = Atomic.get t.failures

let shutdown t =
  match t.lock with
  | None -> Atomic.set t.stopping true
  | Some lock ->
    Contended.lock lock;
    let already = Atomic.exchange t.stopping true in
    Condition.broadcast t.work;
    Contended.unlock lock;
    if not already then begin
      List.iter Domain.join t.domains;
      t.domains <- []
    end
