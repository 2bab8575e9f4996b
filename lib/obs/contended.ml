type stats = {
  acquisitions : int;
  contended : int;
  wait_ns_total : int;
  wait_ns_max : int;
  hold_ns_total : int;
  hold_ns_max : int;
}

type t = {
  name : string;
  mu : Mutex.t;
  acquisitions : int Atomic.t;
  contended_n : int Atomic.t;
  wait_total : int Atomic.t;
  wait_max : int Atomic.t;
  hold_total : int Atomic.t;
  hold_max : int Atomic.t;
  (* Written only by the current holder, under [mu]. *)
  mutable locked_at : int;
}

(* monotonic: a wait or hold cannot read negative when the wall clock
   steps *)
let now_ns = Mitos_util.Clock.now_ns

let atomic_max a v =
  let rec go () =
    let cur = Atomic.get a in
    if v > cur && not (Atomic.compare_and_set a cur v) then go ()
  in
  go ()

(* All Contended mutexes ever created, for aggregate export. The list
   is append-only and small (one entry per lock site), so a plain
   mutex suffices. *)
let tracked : t list ref = ref []
let tracked_mu = Mutex.create ()

let create name =
  let t =
    {
      name;
      mu = Mutex.create ();
      acquisitions = Atomic.make 0;
      contended_n = Atomic.make 0;
      wait_total = Atomic.make 0;
      wait_max = Atomic.make 0;
      hold_total = Atomic.make 0;
      hold_max = Atomic.make 0;
      locked_at = 0;
    }
  in
  Mutex.lock tracked_mu;
  tracked := t :: !tracked;
  Mutex.unlock tracked_mu;
  t

let lock t =
  Atomic.incr t.acquisitions;
  if not (Mutex.try_lock t.mu) then begin
    Atomic.incr t.contended_n;
    let t0 = now_ns () in
    Mutex.lock t.mu;
    let waited = now_ns () - t0 in
    Atomic.fetch_and_add t.wait_total waited |> ignore;
    atomic_max t.wait_max waited
  end;
  t.locked_at <- now_ns ()

let end_hold t =
  let held = now_ns () - t.locked_at in
  Atomic.fetch_and_add t.hold_total held |> ignore;
  atomic_max t.hold_max held

let unlock t =
  end_hold t;
  Mutex.unlock t.mu

let with_lock t f =
  lock t;
  Fun.protect ~finally:(fun () -> unlock t) f

(* Condition interop: the wait releases [mu], so the current hold
   segment ends here and a fresh one starts when the wait returns.
   The reacquisition counts as an acquisition (contended if we had to
   queue behind the signaler's critical section is not observable, so
   it is counted as uncontended). *)
let wait t cond =
  end_hold t;
  Condition.wait cond t.mu;
  Atomic.incr t.acquisitions;
  t.locked_at <- now_ns ()

let mutex t = t.mu
let name t = t.name

let stats t =
  {
    acquisitions = Atomic.get t.acquisitions;
    contended = Atomic.get t.contended_n;
    wait_ns_total = Atomic.get t.wait_total;
    wait_ns_max = Atomic.get t.wait_max;
    hold_ns_total = Atomic.get t.hold_total;
    hold_ns_max = Atomic.get t.hold_max;
  }

let all () =
  Mutex.lock tracked_mu;
  let l = !tracked in
  Mutex.unlock tracked_mu;
  List.rev l

(* Sum per name: several Registry instances all call their lock
   "registry"; the export wants one series per lock site, not per
   instance. *)
let aggregate () =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun t ->
      let s = stats t in
      match Hashtbl.find_opt tbl t.name with
      | None -> Hashtbl.add tbl t.name s
      | Some prev ->
        Hashtbl.replace tbl t.name
          {
            acquisitions = prev.acquisitions + s.acquisitions;
            contended = prev.contended + s.contended;
            wait_ns_total = prev.wait_ns_total + s.wait_ns_total;
            wait_ns_max = max prev.wait_ns_max s.wait_ns_max;
            hold_ns_total = prev.hold_ns_total + s.hold_ns_total;
            hold_ns_max = max prev.hold_ns_max s.hold_ns_max;
          })
    (all ());
  Hashtbl.fold (fun name s acc -> (name, s) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
