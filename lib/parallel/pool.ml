(* A batch-oriented domain pool. One batch at a time is exposed to
   the workers as (task array, atomic cursor); workers and the
   submitting domain claim chunks of indices off the cursor until the
   batch drains. Completion is detected by an atomic count of
   finished tasks, so it does not matter which domain finishes last —
   the last one flips [current] back to [None] and wakes the
   submitter.

   Memory model: every result slot is written before the writing
   domain's fetch-and-add on [finished]; the submitter only reads
   results after observing [finished = size] (an SC atomic read), so
   all task writes happen-before the submitter's reads. *)

(* Tasks that re-enter the pool (nested [map] from inside a task) are
   executed inline: a worker that blocked on an inner batch while
   occupying a slot of the outer one could deadlock the pool. The
   flag is set permanently on worker domains and temporarily on the
   submitting domain while it participates in draining its own batch
   (its tasks would otherwise re-acquire the submit mutex). *)
let in_pool_task : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

type batch = {
  run_task : int -> unit;
  size : int;
  chunk : int;
  next : int Atomic.t;  (* cursor: first unclaimed task index *)
  finished : int Atomic.t;  (* tasks fully executed *)
  mutable failure : exn option;  (* first failure; under the pool mutex *)
}

type t = {
  jobs : int;
  mutex : Mutex.t;
  have_work : Condition.t;  (* a batch was submitted, or shutdown *)
  batch_done : Condition.t;  (* the current batch drained *)
  submit : Mutex.t;  (* serializes submitting domains *)
  mutable current : batch option;
  mutable epoch : int;  (* bumped once per submitted batch *)
  mutable stopping : bool;
  mutable workers : unit Domain.t list;
}

let default_jobs () = Domain.recommended_domain_count ()

let jobs t = t.jobs

let record_failure pool batch exn =
  Mutex.lock pool.mutex;
  (match batch.failure with
  | None -> batch.failure <- Some exn
  | Some _ -> ());
  Mutex.unlock pool.mutex

(* Claim and run chunks until the cursor runs off the end. Returns
   with the batch possibly still in flight on other domains. *)
let drain pool batch =
  let rec loop () =
    let lo = Atomic.fetch_and_add batch.next batch.chunk in
    if lo < batch.size then begin
      let hi = min batch.size (lo + batch.chunk) in
      for i = lo to hi - 1 do
        try batch.run_task i with exn -> record_failure pool batch exn
      done;
      let finished =
        hi - lo + Atomic.fetch_and_add batch.finished (hi - lo)
      in
      if finished = batch.size then begin
        Mutex.lock pool.mutex;
        pool.current <- None;
        Condition.broadcast pool.batch_done;
        Mutex.unlock pool.mutex
      end;
      loop ()
    end
  in
  loop ()

let rec worker_loop pool last_epoch =
  Mutex.lock pool.mutex;
  while
    (not pool.stopping)
    && (Option.is_none pool.current || pool.epoch = last_epoch)
  do
    Condition.wait pool.have_work pool.mutex
  done;
  if pool.stopping then Mutex.unlock pool.mutex
  else begin
    let epoch = pool.epoch in
    let batch = Option.get pool.current in
    Mutex.unlock pool.mutex;
    drain pool batch;
    worker_loop pool epoch
  end

let create ?jobs () =
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  let pool =
    {
      jobs;
      mutex = Mutex.create ();
      have_work = Condition.create ();
      batch_done = Condition.create ();
      submit = Mutex.create ();
      current = None;
      epoch = 0;
      stopping = false;
      workers = [];
    }
  in
  pool.workers <-
    List.init (jobs - 1) (fun _ ->
        Domain.spawn (fun () ->
            Domain.DLS.set in_pool_task true;
            worker_loop pool 0));
  pool

(* Run tasks [0, size) and re-raise the first failure after the whole
   batch has executed — same contract inline and on the pool. Chunks
   target ~8 per domain so the tail of a batch load-balances;
   experiment batches (tens of heavy tasks) always get chunk 1. *)
let run_batch pool ~size run_task =
  if size > 0 then begin
    let failure =
      if pool.jobs = 1 || Domain.DLS.get in_pool_task then begin
        (* inline: the sequential degeneration and the nested case *)
        let failure = ref None in
        for i = 0 to size - 1 do
          try run_task i
          with exn -> if Option.is_none !failure then failure := Some exn
        done;
        !failure
      end
      else begin
        Mutex.lock pool.submit;
        Mutex.lock pool.mutex;
        if pool.stopping then begin
          Mutex.unlock pool.mutex;
          Mutex.unlock pool.submit;
          invalid_arg "Pool: used after shutdown"
        end;
        let batch =
          {
            run_task;
            size;
            chunk = max 1 (size / (pool.jobs * 8));
            next = Atomic.make 0;
            finished = Atomic.make 0;
            failure = None;
          }
        in
        pool.current <- Some batch;
        pool.epoch <- pool.epoch + 1;
        Condition.broadcast pool.have_work;
        Mutex.unlock pool.mutex;
        Domain.DLS.set in_pool_task true;
        Fun.protect
          ~finally:(fun () -> Domain.DLS.set in_pool_task false)
          (fun () -> drain pool batch);
        Mutex.lock pool.mutex;
        while Atomic.get batch.finished < batch.size do
          Condition.wait pool.batch_done pool.mutex
        done;
        let failure = batch.failure in
        Mutex.unlock pool.mutex;
        Mutex.unlock pool.submit;
        failure
      end
    in
    match failure with Some exn -> raise exn | None -> ()
  end

(* [f 0 .. f (size - 1)] on the pool, results in index order *)
let init pool size f =
  let results = Array.make size None in
  run_batch pool ~size (fun i -> results.(i) <- Some (f i));
  Array.map (function Some v -> v | None -> assert false) results

let map_array pool ~f xs = init pool (Array.length xs) (fun i -> f xs.(i))
let map pool ~f xs = Array.to_list (map_array pool ~f (Array.of_list xs))

let mapi pool ~f xs =
  let xs = Array.of_list xs in
  Array.to_list (init pool (Array.length xs) (fun i -> f i xs.(i)))

let iter pool ~f xs = ignore (map pool ~f xs)

let map_reduce pool ~map:f ~combine ~init:acc xs =
  Array.fold_left combine acc (map_array pool ~f (Array.of_list xs))

let map_seeded pool ~seed ~f xs =
  (* split all streams by index before dispatch: stream i depends
     only on (seed, i), never on scheduling or on [jobs] *)
  let base = Mitos_util.Rng.create seed in
  let xs = Array.of_list xs in
  let rngs = Array.map (fun _ -> Mitos_util.Rng.split base) xs in
  Array.to_list
    (init pool (Array.length xs) (fun i -> f ~rng:rngs.(i) xs.(i)))

let map_opt pool ~f xs =
  match pool with None -> List.map f xs | Some pool -> map pool ~f xs

let shutdown pool =
  Mutex.lock pool.submit;
  Mutex.lock pool.mutex;
  let already = pool.stopping in
  pool.stopping <- true;
  if not already then Condition.broadcast pool.have_work;
  Mutex.unlock pool.mutex;
  let workers = pool.workers in
  pool.workers <- [];
  Mutex.unlock pool.submit;
  List.iter Domain.join workers

let with_pool ?jobs f =
  let pool = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)
