module Obs = Mitos_obs.Obs
module Audit = Mitos_obs.Audit
module Engine = Mitos_dift.Engine
module W = Mitos_workload

type result = {
  records : int;
  repetitions : int;
  baseline_s : float;
  disabled_s : float;
  enabled_s : float;
  server_s : float;
  audit_s : float;
  profiled_s : float;
}

type estimator_contention = {
  est_shards : int;
  est_wall_s : float;
  est_acquisitions : int;
  est_contended : int;
  est_wait_ns : int;
}

let contended_share c =
  if c.est_acquisitions = 0 then 0.0
  else float_of_int c.est_contended /. float_of_int c.est_acquisitions

(* Four domains hammering publish+global on one estimator, before
   (1 shard) and after (one shard per domain pair): the per-instance
   shard-lock stats say how often a publish found its lock held, and
   how long it waited — the contention the sharding removes. *)
let measure_estimator_contention ?(domains = 4) ?(rounds = 25_000) ~shards () =
  let per_domain = 2 in
  let nodes = domains * per_domain in
  let est = Mitos_distrib.Estimator.create ~shards ~nodes () in
  let t0 = Unix.gettimeofday () in
  let spawned =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to rounds do
              for k = 0 to per_domain - 1 do
                let node = (d * per_domain) + k in
                Mitos_distrib.Estimator.publish est ~node
                  (float_of_int ((node * 7) + i));
                ignore (Mitos_distrib.Estimator.global est)
              done
            done))
  in
  List.iter Domain.join spawned;
  let est_wall_s = Unix.gettimeofday () -. t0 in
  let acq, cont, wait =
    List.fold_left
      (fun (a, c, w) ((_ : string), (st : Mitos_obs.Contended.stats)) ->
        (a + st.acquisitions, c + st.contended, w + st.wait_ns_total))
      (0, 0, 0)
      (Mitos_distrib.Estimator.shard_stats est)
  in
  {
    est_shards = Mitos_distrib.Estimator.shards est;
    est_wall_s;
    est_acquisitions = acq;
    est_contended = cont;
    est_wait_ns = wait;
  }

let overhead ~baseline t =
  if baseline <= 0.0 then 0.0 else (t -. baseline) /. baseline

let disabled_overhead r = overhead ~baseline:r.baseline_s r.disabled_s
let enabled_overhead r = overhead ~baseline:r.baseline_s r.enabled_s
let server_overhead r = overhead ~baseline:r.baseline_s r.server_s
let audit_overhead r = overhead ~baseline:r.baseline_s r.audit_s
let profiled_overhead r = overhead ~baseline:r.baseline_s r.profiled_s
let contract_ok r = disabled_overhead r <= 0.05

(* One replay of the slice under a fresh engine, returning the time
   spent in the record-processing loop only. Engine and shadow
   construction (and the instrumentation wiring itself) happen
   outside the timed window: the overhead contract is about the
   per-record hot path, and construction is allocation-heavy enough
   to drown a few-percent signal in GC noise. [setup] builds this
   repetition's observability wiring and returns its teardown (run
   after the timed window, e.g. clearing the global audit probe). *)
let replay_once ~built ~trace ~slice setup =
  let engine =
    W.Workload.engine_of
      ~policy:(Mitos_dift.Policies.mitos (Calib.sensitivity_params ()))
      built
  in
  let teardown = setup engine in
  Engine.attach_shadow engine ~mem_size:(Mitos_replay.Trace.mem_size trace);
  let t0 = Unix.gettimeofday () in
  Array.iter (Engine.process_record engine) slice;
  let dt = Unix.gettimeofday () -. t0 in
  teardown ();
  dt

(* Best-of-repetitions processing time per mode, with the modes
   interleaved round-robin: comparing a few percent between modes is
   only sound if scheduler noise, CPU-frequency drift and heap state
   hit every mode alike. Each sample sums [inner] replays so it is
   long enough (several ms) for the clock not to dominate, and a
   major collection before each sample keeps heap state
   comparable. *)
let time_modes ~repetitions ~inner fs =
  List.iter (fun f -> ignore (f ())) fs;
  (* warm-up *)
  let best = Array.make (List.length fs) infinity in
  for _ = 1 to repetitions do
    List.iteri
      (fun i f ->
        Gc.major ();
        let total = ref 0.0 in
        for _ = 1 to inner do
          total := !total +. f ()
        done;
        let dt = !total /. float_of_int inner in
        if dt < best.(i) then best.(i) <- dt)
      fs
  done;
  best

let no_teardown () = ()

let measure () =
  let seed = 1 and records = 5_000 and repetitions = 10 in
  let built = W.Netbench.build ~seed ~chunks:4 () in
  let trace = W.Workload.record built in
  let all = Mitos_replay.Trace.records trace in
  let slice = Array.sub all 0 (min records (Array.length all)) in
  let built = W.Netbench.build ~seed ~chunks:4 () in
  let run setup () = replay_once ~built ~trace ~slice setup in
  (* target ~100k records per timed sample *)
  let inner = max 1 (100_000 / max 1 (Array.length slice)) in
  let real_obs () = Obs.create ~clock:(Mitos_obs.Obs_clock.real ()) () in
  let times =
    time_modes ~repetitions ~inner
      [
        run (fun _engine -> no_teardown);
        run (fun engine ->
            Engine.instrument engine Obs.disabled;
            no_teardown);
        run (fun engine ->
            Engine.instrument engine (real_obs ());
            no_teardown);
        run (fun engine ->
            (* full audit: flight recorder on the decision probe and
               the engine (evictions, flow context) *)
            let audit = Audit.create ~capacity:(1 lsl 20) () in
            Mitos.Decision.set_audit (Some audit);
            Engine.instrument ~audit engine (real_obs ());
            fun () -> Mitos.Decision.set_audit None);
      ]
  in
  (* The exposition-server row needs the server parked for the whole
     timed window, and "a server is up" is process-global: it cannot
     be interleaved with the server-free modes above (it would leak
     into their samples), and starting/joining its domain around each
     sample would time domain startup racing the replay instead of
     the steady state of a --listen run. So the server row is a
     separate pass: one server up for the duration, nothing scraping,
     the same enabled-mode replay timed under it. *)
  let server_obs = real_obs () in
  let server =
    Mitos_obs.Server.start
      [
        Mitos_obs.Server.route ~file:"metrics.prom" "/metrics" (fun () ->
            Mitos_obs.Server.prometheus (Obs.prometheus server_obs));
      ]
  in
  let server_times =
    Fun.protect
      ~finally:(fun () -> Mitos_obs.Server.stop server)
      (fun () ->
        time_modes ~repetitions ~inner
          [
            run (fun engine ->
                Engine.instrument engine server_obs;
                no_teardown);
          ])
  in
  (* Profiler-on row: the full cross-process profiling stack active —
     enabled obs, a background Runtime sampler polling GC and lock
     stats, and one trace context minted per record (what propagation
     adds to every service roundtrip). A separate pass for the same
     reason as the server row: the sampler domain is process-global
     while it runs and must not leak into the other modes' samples. *)
  let profiled_obs = real_obs () in
  let prop =
    Mitos_obs.Propagation.create ~seed (Mitos_obs.Obs_clock.real ())
  in
  let run_profiled () =
    let dt = replay_once ~built ~trace ~slice (fun engine ->
        Engine.instrument engine profiled_obs;
        no_teardown)
    in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to Array.length slice do
      ignore (Mitos_obs.Propagation.fresh prop)
    done;
    dt +. (Unix.gettimeofday () -. t0)
  in
  let sampler =
    Mitos_obs.Runtime.start ~period:0.01 (Obs.registry profiled_obs)
  in
  let profiled_times =
    Fun.protect
      ~finally:(fun () -> Mitos_obs.Runtime.stop sampler)
      (fun () -> time_modes ~repetitions ~inner [ run_profiled ])
  in
  let baseline_s = times.(0)
  and disabled_s = times.(1)
  and enabled_s = times.(2)
  and server_s = server_times.(0)
  and audit_s = times.(3)
  and profiled_s = profiled_times.(0) in
  {
    records = Array.length slice;
    repetitions;
    baseline_s;
    disabled_s;
    enabled_s;
    server_s;
    audit_s;
    profiled_s;
  }

let run () =
  let r = measure () in
  let report =
    Report.create ~title:"Observability overhead (engine replay benchmark)"
  in
  Report.textf report
    "Replay of %d netbench records (mitos policy), best of %d repetitions \
     per mode."
    r.records r.repetitions;
  let t = Mitos_util.Table.create ~header:[ "mode"; "wall (ms)"; "overhead" ] () in
  let row name seconds =
    Mitos_util.Table.add_row t
      [
        name;
        Printf.sprintf "%.3f" (1000.0 *. seconds);
        Printf.sprintf "%+.1f%%" (100.0 *. overhead ~baseline:r.baseline_s seconds);
      ]
  in
  row "baseline (no obs, no audit)" r.baseline_s;
  row "instrumented, no-op sink" r.disabled_s;
  row "instrumented, enabled (real clock)" r.enabled_s;
  row "enabled + exposition server (idle)" r.server_s;
  row "enabled + audit flight recorder" r.audit_s;
  row "enabled + propagation + runtime sampler" r.profiled_s;
  Report.table report t;
  Report.textf report
    "Contract: the no-op sink (audit disabled) must stay within 5%% of \
     baseline (measured %+.1f%%), and an attached-but-idle exposition \
     server within 5%% of the enabled row (measured %+.1f%% vs baseline, \
     %+.1f%% vs enabled). Profiler on (propagation + runtime sampling): \
     %+.1f%% vs baseline — informational, the profiler is opt-in."
    (100.0 *. disabled_overhead r)
    (100.0 *. server_overhead r)
    (100.0 *. overhead ~baseline:r.enabled_s r.server_s)
    (100.0 *. profiled_overhead r);
  Report.textf report "disabled-overhead contract (<= 5%%): %s"
    (if contract_ok r then "PASS" else "FAIL");
  (* lock_estimator_contention, before/after sharding: same 4-domain
     publish+global hammer against 1 shard and 4 shards, reported from
     the instrumented shard locks so the win (or, on one core, the
     absence of cross-core contention) is visible from the tool *)
  let before = measure_estimator_contention ~shards:1 () in
  let after = measure_estimator_contention ~shards:4 () in
  let ct =
    Mitos_util.Table.create
      ~header:
        [
          "estimator"; "wall (ms)"; "acquisitions"; "contended"; "share";
          "wait (us)";
        ]
      ()
  in
  let crow (c : estimator_contention) =
    Mitos_util.Table.add_row ct
      [
        Printf.sprintf "%d shard%s" c.est_shards
          (if c.est_shards = 1 then "" else "s");
        Printf.sprintf "%.3f" (1000.0 *. c.est_wall_s);
        string_of_int c.est_acquisitions;
        string_of_int c.est_contended;
        Printf.sprintf "%.2f%%" (100.0 *. contended_share c);
        Printf.sprintf "%.1f" (float_of_int c.est_wait_ns /. 1e3);
      ]
  in
  crow before;
  crow after;
  Report.table report ct;
  Report.textf report
    "lock_estimator_contention: 4 domains x publish+global, contended \
     share %.2f%% at 1 shard -> %.2f%% at 4 shards (publishes now \
     serialize only within a shard; the global read is lock-free at any \
     shard count)."
    (100.0 *. contended_share before)
    (100.0 *. contended_share after);
  Report.finish report
