(* What one workload run reports, the metric catalogue every run must
   fill, and the order statistics used to summarise samples. The names
   and units here are the ones BENCHMARK.json lists; the smoke test
   checks that the two agree. *)

type scale = Full | Smoke

let end_to_end =
  [ ("setup_s", "s"); ("throughput_per_s", "1/s"); ("latency_p50_us", "us");
    ("peak_heap_mb", "MB") ]

(* Every per-layer metric is emitted on every workload; a layer the
   workload's path does not touch reads 0. *)
let per_layer =
  [ ("trace.decode_ns_per_record", "ns/record");
    ("engine.self_ns_per_record", "ns/record");
    ("engine.setup_ms", "ms");
    ("engine.shadow_ops_per_record", "ops/record");
    ("engine.evictions_per_krecord", "evict/krecord");
    ("gc.minor_words_per_record", "words/record");
    ("policy.ns_per_call", "ns/call");
    ("policy.calls_per_record", "calls/record");
    ("policy.share", "ratio");
    ("wire.encode_request_ns", "ns/frame");
    ("wire.decode_request_ns", "ns/frame");
    ("wire.encode_response_ns", "ns/frame");
    ("wire.decode_response_ns", "ns/frame");
    ("decision.alg2_ns_per_frame", "ns/frame");
    ("estimator.global_ns", "ns/frame");
    ("server.handle_ns", "ns/frame");
    ("server.self_ns", "ns/frame");
    ("client.self_ns", "ns/frame");
    ("gc.minor_words_per_frame", "words/frame");
    ("stage_coverage", "ratio");
    ("server.handle_mean_us", "us/frame");
    ("net.residual_us", "us/frame");
    ("lock.wait_ns_per_frame", "ns/frame");
    ("lock.acquisitions_per_frame", "acq/frame");
    ("client.retries", "count");
    ("estimator.publish_rtt_p50_us", "us");
    ("loadgen.lag_ms_max", "ms");
    ("loadgen.rtt_p99_us", "us");
    ("tracing.overhead_pct", "%") ]

type t = {
  attempted : int;
  failed : int;
  e2e : (string * float) list;
  layer : (string * float) list;
}

let make ~attempted ~failed ~e2e ~layer =
  let known catalogue (name, v) =
    if not (List.mem_assoc name catalogue) then
      failwith ("unknown metric " ^ name);
    if not (Float.is_finite v) then
      failwith (Printf.sprintf "metric %s is not finite" name)
  in
  List.iter (known end_to_end) e2e;
  List.iter (known per_layer) layer;
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name e2e) then failwith ("missing metric " ^ name))
    end_to_end;
  { attempted; failed; e2e; layer }

(* The metrics of one mode, in catalogue order, with units. *)
let metrics t ~traced =
  if traced then
    List.map
      (fun (name, unit) ->
        (name, Option.value (List.assoc_opt name t.layer) ~default:0.0, unit))
      per_layer
  else List.map (fun (name, unit) -> (name, List.assoc name t.e2e, unit)) end_to_end

let number v = Printf.sprintf "%.17g" v

(* The single-line result object: correct, attempted, failed, metrics. *)
let to_json t ~traced =
  let metric (name, v, unit) =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (number v) unit
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (t.failed = 0) t.attempted t.failed
    (String.concat ", " (List.map metric (metrics t ~traced)))

(* -- runner fingerprint ------------------------------------------------- *)

let first_line path =
  try In_channel.with_open_text path input_line
  with Sys_error _ | End_of_file -> "unknown"

let cpu_model () =
  let prefix = "model name" in
  try
    In_channel.with_open_text "/proc/cpuinfo" (fun ic ->
        let rec scan () =
          match input_line ic with
          | line when String.starts_with ~prefix line -> (
            match String.index_opt line ':' with
            | Some i -> String.trim (String.sub line (i + 1) (String.length line - i - 1))
            | None -> "unknown")
          | _ -> scan ()
          | exception End_of_file -> "unknown"
        in
        scan ())
  with Sys_error _ -> "unknown"

let fingerprint () =
  [ ("nproc", string_of_int (Domain.recommended_domain_count ()));
    ("ocaml", Sys.ocaml_version); ("cpu", cpu_model ());
    ("kernel", first_line "/proc/sys/kernel/osrelease") ]

let fingerprint_line () =
  "# runner "
  ^ String.concat " "
      (List.map (fun (k, v) -> Printf.sprintf "%s=%S" k v) (fingerprint ()))

(* -- statistics --------------------------------------------------------- *)

let ratio a b = if b = 0.0 then 0.0 else a /. b

let median = function
  | [] -> 0.0
  | xs -> Mitos_util.Stats.median (Array.of_list xs)

(* The median of the better half of [xs] (the lower half when lower is
   better). Other tenants of a shared host only ever slow a round
   down, and their bursts can cover most of a run, so this is the
   median each end-to-end metric reports over its rounds. *)
let better_half_median ~lower xs =
  let better = if lower then Float.compare else fun a b -> Float.compare b a in
  let sorted = List.sort better xs in
  median (List.filteri (fun i _ -> i < (List.length xs + 1) / 2) sorted)

(* Python's statistics.quantiles(xs, n=4), the default "exclusive"
   method: the first and third quartiles. Needs two or more values. *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let m = Array.length a + 1 in
  let cut i =
    let j = i * m / 4 and delta = (i * m) mod 4 in
    let lo = a.(max 0 (min (Array.length a - 1) (j - 1)))
    and hi = a.(max 0 (min (Array.length a - 1) j)) in
    ((lo *. float_of_int (4 - delta)) +. (hi *. float_of_int delta)) /. 4.0
  in
  (cut 1, cut 3)

(* In-place selection over the first [n] entries: afterwards [a.(k)]
   holds the k-th smallest. No allocation, so latency buffers can be
   summarised without touching the heap the benchmark reports. *)
let rec select (a : int array) lo hi k =
  if lo < hi then begin
    let pivot = a.(lo + ((hi - lo) / 2)) in
    let i = ref lo and j = ref hi in
    while !i <= !j do
      while a.(!i) < pivot do incr i done;
      while a.(!j) > pivot do decr j done;
      if !i <= !j then begin
        let x = a.(!i) in
        a.(!i) <- a.(!j);
        a.(!j) <- x;
        incr i;
        decr j
      end
    done;
    if k <= !j then select a lo !j k else if k >= !i then select a !i hi k
  end

(* Nearest-rank quantile of the first [n] entries; reorders them. *)
let quantile (a : int array) n q =
  if n = 0 then 0.0
  else begin
    let k = max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)) in
    select a 0 (n - 1) k;
    float_of_int a.(k)
  end

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

(* Set-up, timed repeatedly through the run. *)
type 'a setup = { make : unit -> 'a; teardown : 'a -> unit; mutable times : float list }

let timed s =
  let t0 = Span.now () in
  let v = s.make () in
  s.times <- (float_of_int (Span.now () - t0) /. 1e9) :: s.times;
  v

(* Set up once untimed, to load code and fill caches, then once on the
   clock; the second result is the one the run uses. *)
let setup make ~teardown =
  let s = { make; teardown; times = [] } in
  teardown (make ());
  (s, timed s)

(* One more timed set-up, torn down at once. The workloads call it
   between rounds, so that set-up time is sampled across the whole
   run, as the rounds are, and a slow spell of the host hits only some
   of its samples. *)
let resample s = s.teardown (timed s)

(* The better-half median of the timed set-ups. *)
let setup_s s = better_half_median ~lower:true s.times

(* Minor-heap words a thunk allocates on this domain ([Gc.minor_words]
   counts exactly on OCaml 5, unlike [Gc.quick_stat]'s field). *)
let minor_words_during f =
  let w0 = Gc.minor_words () in
  let v = f () in
  (v, Gc.minor_words () -. w0)
