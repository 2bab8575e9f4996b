(* A batch is a task array and an atomic cursor; the submitting
   domain and [jobs - 1] drain tasks on the pool's executor claim
   chunks of indices off the cursor until it runs off the end.
   Completion is an atomic count of finished tasks, so it does not
   matter which domain finishes last: that one wakes the submitter.

   Memory model: every result slot is written before the writing
   domain's fetch-and-add on [finished]; the submitter only reads
   results after observing [finished = size] (an SC atomic read), so
   all task writes happen-before the submitter's reads. *)

(* Tasks that re-enter a pool (nested [map] from inside a task) run
   inline: a drainer that blocked on an inner batch while holding a
   slot of the outer one could deadlock the pool. The flag is set on
   every domain while it drains a batch. *)
let in_pool_task : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

type batch = {
  run_task : int -> unit;
  size : int;
  chunk : int;
  next : int Atomic.t;  (* cursor: first unclaimed task index *)
  finished : int Atomic.t;  (* tasks fully executed *)
  failure : exn option Atomic.t;  (* first failure to complete *)
  lock : Mutex.t;
  all_done : Condition.t;
}

type t = {
  jobs : int;
  exec : Executor.t;  (* [jobs - 1] workers *)
  submit : Mutex.t;  (* serializes submitting domains and shutdown *)
  stopping : bool Atomic.t;
}

let default_jobs () = Domain.recommended_domain_count ()

let create ?jobs () =
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  {
    jobs;
    exec = Executor.create ~name:"pool" ~workers:(jobs - 1) ();
    submit = Mutex.create ();
    stopping = Atomic.make false;
  }

(* Claim and run chunks until the cursor runs off the end. Returns
   with the batch possibly still in flight on other domains. *)
let drain batch =
  let rec loop () =
    let lo = Atomic.fetch_and_add batch.next batch.chunk in
    if lo < batch.size then begin
      let hi = min batch.size (lo + batch.chunk) in
      for i = lo to hi - 1 do
        try batch.run_task i
        with exn ->
          ignore (Atomic.compare_and_set batch.failure None (Some exn))
      done;
      if hi - lo + Atomic.fetch_and_add batch.finished (hi - lo) = batch.size
      then
        Mutex.protect batch.lock (fun () ->
            Condition.broadcast batch.all_done);
      loop ()
    end
  in
  loop ()

let drain_flagged batch =
  Domain.DLS.set in_pool_task true;
  drain batch;
  Domain.DLS.set in_pool_task false

let refuse () = invalid_arg "Pool: used after shutdown"

(* Run tasks [0, size) and re-raise the first failure after the whole
   batch has executed — same contract inline and on the executor.
   Chunks target ~8 per domain so the tail of a batch load-balances;
   experiment batches (tens of heavy tasks) always get chunk 1. *)
let run_batch pool ~size run_task =
  if Atomic.get pool.stopping then refuse ();
  let batch =
    {
      run_task;
      size;
      chunk = max 1 (size / (pool.jobs * 8));
      next = Atomic.make 0;
      finished = Atomic.make 0;
      failure = Atomic.make None;
      lock = Mutex.create ();
      all_done = Condition.create ();
    }
  in
  if pool.jobs = 1 || Domain.DLS.get in_pool_task then
    (* inline: the sequential degeneration and the nested case *)
    drain batch
  else
    Mutex.protect pool.submit (fun () ->
        if Atomic.get pool.stopping then refuse ();
        for _ = 2 to pool.jobs do
          Executor.submit pool.exec (fun () -> drain_flagged batch)
        done;
        drain_flagged batch;
        Mutex.protect batch.lock (fun () ->
            while Atomic.get batch.finished < batch.size do
              Condition.wait batch.all_done batch.lock
            done));
  Option.iter raise (Atomic.get batch.failure)

let map pool ~f xs =
  let xs = Array.of_list xs in
  let results = Array.make (Array.length xs) None in
  run_batch pool ~size:(Array.length xs) (fun i ->
      results.(i) <- Some (f xs.(i)));
  Array.to_list
    (Array.map (function Some v -> v | None -> assert false) results)

let map_opt pool ~f xs =
  match pool with None -> List.map f xs | Some pool -> map pool ~f xs

let shutdown pool =
  Mutex.protect pool.submit (fun () ->
      Atomic.set pool.stopping true;
      Executor.shutdown pool.exec)

let with_pool ?jobs f =
  let pool = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)
