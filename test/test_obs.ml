open Mitos_obs

let check_float = Alcotest.(check (float 1e-9))

let string_contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

(* -- Obs_clock ------------------------------------------------------ *)

let test_logical_clock () =
  let c = Obs_clock.logical () in
  Alcotest.(check int) "starts at 0" 0 (Obs_clock.now c);
  Alcotest.(check int) "advances by one" 1 (Obs_clock.now c);
  Alcotest.(check int) "again" 2 (Obs_clock.now c);
  let c = Obs_clock.logical ~start:100 () in
  Alcotest.(check int) "custom start" 100 (Obs_clock.now c)

let test_of_fun_clock () =
  let source = ref 7 in
  let c = Obs_clock.of_fun (fun () -> !source) in
  Alcotest.(check int) "reads source" 7 (Obs_clock.now c);
  source := 42;
  Alcotest.(check int) "tracks source" 42 (Obs_clock.now c)

let test_real_clock_monotone () =
  let c = Obs_clock.real () in
  let a = Obs_clock.now c in
  let b = Obs_clock.now c in
  Alcotest.(check bool) "non-negative" true (a >= 0);
  Alcotest.(check bool) "non-decreasing" true (b >= a)

(* -- Histogram ------------------------------------------------------ *)

let test_histogram_bucket_boundaries () =
  (* lo=1, growth=2, 5 buckets: bounds 1, 2, 4, 8, +inf.
     Bucket i covers (ub(i-1), ub(i)]; bucket 0 also absorbs <= 1. *)
  let h = Histogram.create ~lo:1.0 ~growth:2.0 ~buckets:5 () in
  Alcotest.(check int) "num buckets" 5 (Histogram.num_buckets h);
  check_float "ub 0" 1.0 (Histogram.upper_bound h 0);
  check_float "ub 1" 2.0 (Histogram.upper_bound h 1);
  check_float "ub 2" 4.0 (Histogram.upper_bound h 2);
  check_float "ub 3" 8.0 (Histogram.upper_bound h 3);
  Alcotest.(check bool) "last is +inf" true
    (Histogram.upper_bound h 4 = infinity);
  let idx = Histogram.bucket_index h in
  Alcotest.(check int) "0.5 -> 0" 0 (idx 0.5);
  Alcotest.(check int) "1.0 -> 0 (inclusive ub)" 0 (idx 1.0);
  Alcotest.(check int) "1.5 -> 1" 1 (idx 1.5);
  Alcotest.(check int) "2.0 -> 1 (inclusive ub)" 1 (idx 2.0);
  Alcotest.(check int) "2.0001 -> 2" 2 (idx 2.0001);
  Alcotest.(check int) "4.0 -> 2" 2 (idx 4.0);
  Alcotest.(check int) "8.0 -> 3" 3 (idx 8.0);
  Alcotest.(check int) "9.0 -> overflow" 4 (idx 9.0);
  Alcotest.(check int) "1e12 -> overflow" 4 (idx 1e12)

let test_histogram_observe_counts () =
  let h = Histogram.create ~lo:1.0 ~growth:2.0 ~buckets:4 () in
  List.iter (Histogram.observe h) [ 0.5; 1.0; 3.0; 3.5; 100.0 ];
  Alcotest.(check int) "count" 5 (Histogram.count h);
  check_float "sum" 108.0 (Histogram.sum h);
  check_float "min" 0.5 (Histogram.min_value h);
  check_float "max" 100.0 (Histogram.max_value h);
  check_float "mean" 21.6 (Histogram.mean h);
  Alcotest.(check int) "bucket 0" 2 (Histogram.bucket_count h 0);
  Alcotest.(check int) "bucket 1" 0 (Histogram.bucket_count h 1);
  Alcotest.(check int) "bucket 2" 2 (Histogram.bucket_count h 2);
  Alcotest.(check int) "overflow" 1 (Histogram.bucket_count h 3);
  let cum = Histogram.cumulative_buckets h in
  Alcotest.(check (list int)) "cumulative"
    [ 2; 2; 4; 5 ]
    (Array.to_list (Array.map snd cum))

let test_histogram_empty () =
  let h = Histogram.create () in
  Alcotest.(check int) "count 0" 0 (Histogram.count h);
  Alcotest.(check bool) "min nan" true (Float.is_nan (Histogram.min_value h));
  Alcotest.(check bool) "max nan" true (Float.is_nan (Histogram.max_value h));
  Alcotest.(check bool) "mean nan" true (Float.is_nan (Histogram.mean h));
  Alcotest.(check bool) "quantile nan" true (Float.is_nan (Histogram.quantile h 0.5))

let test_histogram_quantiles () =
  let h = Histogram.create ~lo:1.0 ~growth:2.0 ~buckets:10 () in
  (* 100 observations of 1..100 *)
  for i = 1 to 100 do
    Histogram.observe h (float_of_int i)
  done;
  check_float "q0 is exact min" 1.0 (Histogram.quantile h 0.0);
  check_float "q1 is exact max" 100.0 (Histogram.quantile h 1.0);
  (* the estimate should be within the bucket that holds the true
     quantile: median 50 lives in bucket (32, 64] *)
  let q50 = Histogram.quantile h 0.5 in
  Alcotest.(check bool)
    (Printf.sprintf "median in (32, 64], got %g" q50)
    true
    (q50 > 32.0 && q50 <= 64.0);
  let q90 = Histogram.quantile h 0.9 in
  Alcotest.(check bool)
    (Printf.sprintf "p90 in (64, 100], got %g" q90)
    true
    (q90 > 64.0 && q90 <= 100.0);
  Alcotest.check_raises "q out of range"
    (Invalid_argument "Histogram.quantile: q outside [0,1]") (fun () ->
      ignore (Histogram.quantile h 1.5))

let test_histogram_quantile_clamps () =
  (* All mass in one bucket: interpolation must clamp to [min, max]. *)
  let h = Histogram.create ~lo:1.0 ~growth:2.0 ~buckets:8 () in
  List.iter (Histogram.observe h) [ 5.0; 5.0; 5.0; 5.0 ];
  let q = Histogram.quantile h 0.5 in
  Alcotest.(check bool) "clamped to observed range" true (q = 5.0)

let test_histogram_quantile_edges () =
  (* single observation: every quantile lands on that value *)
  let h = Histogram.create ~lo:1.0 ~growth:2.0 ~buckets:4 () in
  Histogram.observe h 3.0;
  check_float "single q0" 3.0 (Histogram.quantile h 0.0);
  check_float "single q0.5" 3.0 (Histogram.quantile h 0.5);
  check_float "single q1" 3.0 (Histogram.quantile h 1.0);
  (* q0/q1 are the exact extremes, not bucket bounds *)
  let h = Histogram.create ~lo:1.0 ~growth:2.0 ~buckets:6 () in
  List.iter (Histogram.observe h) [ 1.25; 7.5; 30.0 ];
  check_float "q0 exact min" 1.25 (Histogram.quantile h 0.0);
  check_float "q1 exact max" 30.0 (Histogram.quantile h 1.0);
  (* all mass in the overflow bucket: no finite upper bound to
     interpolate against, so the estimate falls back to the max *)
  let h = Histogram.create ~lo:1.0 ~growth:2.0 ~buckets:3 () in
  List.iter (Histogram.observe h) [ 50.0; 70.0; 90.0 ];
  check_float "overflow q0.5 = max" 90.0 (Histogram.quantile h 0.5);
  check_float "overflow q0.99 = max" 90.0 (Histogram.quantile h 0.99);
  check_float "overflow q0 = min" 50.0 (Histogram.quantile h 0.0)

let test_histogram_reset () =
  let h = Histogram.create () in
  Histogram.observe h 3.0;
  Histogram.reset h;
  Alcotest.(check int) "count 0 after reset" 0 (Histogram.count h);
  check_float "sum 0 after reset" 0.0 (Histogram.sum h)

let test_histogram_validation () =
  Alcotest.check_raises "lo <= 0"
    (Invalid_argument "Histogram.create: lo must be positive") (fun () ->
      ignore (Histogram.create ~lo:0.0 ()));
  Alcotest.check_raises "growth <= 1"
    (Invalid_argument "Histogram.create: growth must exceed 1") (fun () ->
      ignore (Histogram.create ~growth:1.0 ()));
  Alcotest.check_raises "buckets < 2"
    (Invalid_argument "Histogram.create: need at least 2 buckets") (fun () ->
      ignore (Histogram.create ~buckets:1 ()))

(* -- Registry ------------------------------------------------------- *)

let test_registry_get_or_create () =
  let r = Registry.create () in
  let c1 = Registry.counter r "requests" in
  let c2 = Registry.counter r "requests" in
  Registry.incr c1;
  Registry.add c2 2;
  Alcotest.(check int) "same instrument" 3 (Registry.counter_value c1);
  let g = Registry.gauge r "depth" in
  Registry.set_gauge g 4.5;
  check_float "gauge" 4.5 (Registry.gauge_value (Registry.gauge r "depth"));
  (* distinct labels -> distinct instruments *)
  let a = Registry.counter r ~labels:[ ("ty", "net") ] "ifp" in
  let b = Registry.counter r ~labels:[ ("ty", "file") ] "ifp" in
  Registry.incr a;
  Alcotest.(check int) "label isolation" 0 (Registry.counter_value b)

let test_registry_kind_mismatch () =
  let r = Registry.create () in
  ignore (Registry.counter r "x");
  Alcotest.(check bool) "kind clash raises" true
    (try
       ignore (Registry.gauge r "x");
       false
     with Invalid_argument _ -> true)

let test_prometheus_rendering () =
  let r = Registry.create () in
  let c = Registry.counter r ~help:"Total records." "mitos_records_total" in
  Registry.add c 42;
  let g = Registry.gauge r "mitos_depth" in
  Registry.set_gauge g 3.0;
  let h =
    Registry.histogram r ~lo:1.0 ~growth:2.0 ~buckets:4 "mitos_latency_ticks"
  in
  List.iter (Histogram.observe h) [ 1.0; 3.0; 100.0 ];
  let expected =
    "# TYPE mitos_depth gauge\n\
     mitos_depth 3\n\
     # TYPE mitos_latency_ticks histogram\n\
     mitos_latency_ticks_bucket{le=\"1\"} 1\n\
     mitos_latency_ticks_bucket{le=\"2\"} 1\n\
     mitos_latency_ticks_bucket{le=\"4\"} 2\n\
     mitos_latency_ticks_bucket{le=\"+Inf\"} 3\n\
     mitos_latency_ticks{quantile=\"0.5\"} 3\n\
     mitos_latency_ticks{quantile=\"0.95\"} 100\n\
     mitos_latency_ticks{quantile=\"0.99\"} 100\n\
     mitos_latency_ticks_sum 104\n\
     mitos_latency_ticks_count 3\n\
     # HELP mitos_records_total Total records.\n\
     # TYPE mitos_records_total counter\n\
     mitos_records_total 42\n"
  in
  Alcotest.(check string) "byte-exact prometheus" expected
    (Registry.to_prometheus r)

let test_prometheus_labels_sorted () =
  let r = Registry.create () in
  (* insertion order must not matter *)
  Registry.incr (Registry.counter r ~labels:[ ("ty", "net"); ("v", "y") ] "c");
  Registry.incr (Registry.counter r ~labels:[ ("ty", "file"); ("v", "x") ] "c");
  let text = Registry.to_prometheus r in
  let pos_file =
    let rec find i =
      if String.sub text i 9 = "ty=\"file\"" then i else find (i + 1)
    in
    find 0
  in
  let pos_net =
    let rec find i =
      if String.sub text i 8 = "ty=\"net\"" then i else find (i + 1)
    in
    find 0
  in
  Alcotest.(check bool) "file before net" true (pos_file < pos_net)

let test_fmt_value () =
  Alcotest.(check string) "integer-valued" "42" (Registry.fmt_value 42.0);
  Alcotest.(check string) "fractional" "2.5" (Registry.fmt_value 2.5);
  Alcotest.(check string) "+Inf" "+Inf" (Registry.fmt_value infinity);
  Alcotest.(check string) "-Inf" "-Inf" (Registry.fmt_value neg_infinity);
  Alcotest.(check string) "NaN" "NaN" (Registry.fmt_value nan)

let test_json_string () =
  Alcotest.(check string) "plain" "\"abc\"" (Registry.json_string "abc");
  Alcotest.(check string) "escapes" "\"a\\\"b\\\\c\\n\""
    (Registry.json_string "a\"b\\c\n")

let test_registry_json () =
  let r = Registry.create () in
  Registry.add (Registry.counter r "c") 5;
  Registry.set_gauge (Registry.gauge r "g") 1.5;
  let js = Registry.to_json r in
  Alcotest.(check bool) "has counters" true (string_contains js "\"counters\"");
  Alcotest.(check bool) "has c" true (string_contains js "\"c\":5");
  Alcotest.(check bool) "has g" true (string_contains js "\"g\":1.5")

(* -- Tracer --------------------------------------------------------- *)

let test_span_nesting () =
  let t = Tracer.create ~clock:(Obs_clock.logical ()) () in
  Tracer.span_begin t "outer";
  Alcotest.(check int) "depth 1" 1 (Tracer.depth t);
  Tracer.span_begin t "inner";
  Alcotest.(check int) "depth 2" 2 (Tracer.depth t);
  Tracer.span_end t;
  Tracer.span_end t;
  Alcotest.(check int) "depth 0" 0 (Tracer.depth t);
  match Tracer.events t with
  | [| Begin { name = "outer"; ts = 0; _ }; Begin { name = "inner"; ts = 1; _ };
       End { ts = 2 }; End { ts = 3 } |] ->
    ()
  | evs -> Alcotest.failf "unexpected event stream (%d events)" (Array.length evs)

let test_unmatched_end () =
  let t = Tracer.create ~clock:(Obs_clock.logical ()) () in
  Tracer.span_end t;
  Tracer.span_begin t "a";
  Tracer.span_end t;
  Tracer.span_end t;
  Alcotest.(check int) "two unmatched" 2 (Tracer.unmatched_ends t);
  Alcotest.(check int) "one balanced pair retained" 2 (Tracer.length t)

let test_finish_closes_open_spans () =
  let t = Tracer.create ~clock:(Obs_clock.logical ()) () in
  Tracer.span_begin t "a";
  Tracer.span_begin t "b";
  Tracer.finish t;
  Alcotest.(check int) "depth 0 after finish" 0 (Tracer.depth t);
  Alcotest.(check int) "begins + synthesized ends" 4 (Tracer.length t);
  Tracer.finish t;
  Alcotest.(check int) "finish idempotent" 4 (Tracer.length t)

let test_with_span_on_raise () =
  let t = Tracer.create ~clock:(Obs_clock.logical ()) () in
  (try Tracer.with_span t "boom" (fun () -> failwith "x") with Failure _ -> ());
  Alcotest.(check int) "span closed on raise" 0 (Tracer.depth t);
  Alcotest.(check int) "begin and end retained" 2 (Tracer.length t)

let test_capacity_keeps_stream_well_nested () =
  let t = Tracer.create ~capacity:4 ~clock:(Obs_clock.logical ()) () in
  (* Fill capacity with two whole spans, then open a third inside a
     fourth: their begins are dropped, so their ends must be too. *)
  Tracer.with_span t "a" (fun () -> ());
  Tracer.with_span t "b" (fun () -> ());
  Tracer.with_span t "c" (fun () -> Tracer.with_span t "d" (fun () -> ()));
  Alcotest.(check int) "capacity respected" 4 (Tracer.length t);
  Alcotest.(check bool) "drops counted" true (Tracer.dropped t > 0);
  (* the retained stream is well nested: running depth never < 0 and
     ends at 0 *)
  let depth = ref 0 in
  Array.iter
    (function
      | Tracer.Begin _ -> incr depth
      | Tracer.End _ ->
        decr depth;
        Alcotest.(check bool) "never negative" true (!depth >= 0)
      | _ -> ())
    (Tracer.events t);
  Alcotest.(check int) "balanced" 0 !depth

let test_capacity_keeps_end_of_retained_begin () =
  let t = Tracer.create ~capacity:1 ~clock:(Obs_clock.logical ()) () in
  Tracer.span_begin t "kept";
  Tracer.instant t "dropped-instant";
  Tracer.span_end t;
  (* the End of the retained Begin overshoots capacity by design *)
  Alcotest.(check int) "begin + its end" 2 (Tracer.length t);
  match Tracer.events t with
  | [| Begin { name = "kept"; _ }; End _ |] -> ()
  | _ -> Alcotest.fail "expected exactly Begin kept; End"

(* -- Chrome trace --------------------------------------------------- *)

let test_chrome_trace_rendering () =
  let t = Tracer.create ~clock:(Obs_clock.logical ()) () in
  Tracer.with_span t ~args:[ ("items", "3") ] "solve" (fun () ->
      Tracer.instant t "mark";
      Tracer.counter t "engine" [ ("depth", 2.0) ]);
  let expected =
    "{\"traceEvents\":["
    ^ "{\"name\":\"solve\",\"ph\":\"B\",\"ts\":0,\"pid\":1,\"tid\":1,\"args\":{\"items\":\"3\"}},"
    ^ "{\"name\":\"mark\",\"ph\":\"i\",\"ts\":1,\"pid\":1,\"tid\":1,\"s\":\"t\"},"
    ^ "{\"name\":\"engine\",\"ph\":\"C\",\"ts\":2,\"pid\":1,\"tid\":1,\"args\":{\"depth\":2}},"
    ^ "{\"ph\":\"E\",\"ts\":3,\"pid\":1,\"tid\":1}"
    ^ "],\"displayTimeUnit\":\"ms\"}"
  in
  Alcotest.(check string) "byte-exact chrome trace" expected
    (Chrome_trace.to_json t)

let test_chrome_trace_escaping () =
  let t = Tracer.create ~clock:(Obs_clock.logical ()) () in
  Tracer.with_span t
    ~args:[ ("k\"ey", "v\\al\nue") ]
    "na\"me" (fun () -> Tracer.instant t "tab\there\x01");
  let js = Chrome_trace.to_json t in
  Alcotest.(check bool) "quote in name escaped" true
    (string_contains js "\"name\":\"na\\\"me\"");
  Alcotest.(check bool) "arg key escaped" true
    (string_contains js "\"k\\\"ey\":");
  Alcotest.(check bool) "backslash and newline in value" true
    (string_contains js "\"v\\\\al\\nue\"");
  Alcotest.(check bool) "tab and control char" true
    (string_contains js "\"tab\\there\\u0001\"");
  Alcotest.(check bool) "no raw newline in output" true
    (not (String.contains js '\n'))

let test_chrome_trace_jsonl () =
  let t = Tracer.create ~clock:(Obs_clock.logical ()) () in
  Tracer.with_span t "s" (fun () -> ());
  let lines = String.split_on_char '\n' (String.trim (Chrome_trace.to_jsonl t)) in
  Alcotest.(check int) "one line per event" 2 (List.length lines);
  List.iter
    (fun l ->
      Alcotest.(check bool) "line is an object" true
        (String.length l > 0 && l.[0] = '{' && l.[String.length l - 1] = '}'))
    lines

(* -- Audit ----------------------------------------------------------- *)

let test_audit_null_noop () =
  Alcotest.(check bool) "disabled" false (Audit.enabled Audit.null);
  Audit.record_note Audit.null "x";
  Audit.record_decision Audit.null ~algorithm:"alg1" ~space:1 ~pollution:0.0 [];
  Audit.record_eviction Audit.null ~at:"mem:1" ~victim:"a" ~incoming:"b" ();
  Audit.record_selection Audit.null ~policy:"p" ~flow:"f" ~candidates:[]
    ~chosen:[] ();
  Audit.set_context Audit.null ~step:9 ();
  Alcotest.(check int) "no ids consumed" 0 (Audit.next_id Audit.null);
  Alcotest.(check int) "empty" 0 (Audit.length Audit.null)

let test_audit_ring_and_sink () =
  let lines = ref [] in
  let a = Audit.create ~capacity:2 ~sink:(fun l -> lines := l :: !lines) () in
  Alcotest.(check bool) "enabled" true (Audit.enabled a);
  for i = 0 to 3 do
    Audit.record_note a (Printf.sprintf "n%d" i)
  done;
  Alcotest.(check int) "retained" 2 (Audit.length a);
  Alcotest.(check int) "dropped" 2 (Audit.dropped a);
  Alcotest.(check int) "ids keep flowing past the ring" 4 (Audit.next_id a);
  (match Audit.records a with
  | [| { Audit.id = 0; _ }; { Audit.id = 1; _ } |] -> ()
  | _ -> Alcotest.fail "keep-oldest ring should hold ids 0 and 1");
  (* the sink sees every record, including the ring-dropped ones *)
  Alcotest.(check int) "sink saw everything" 4 (List.length !lines);
  List.iter
    (fun l -> Alcotest.(check bool) "single line" true
        (not (String.contains l '\n')))
    !lines;
  Alcotest.check_raises "capacity validated"
    (Invalid_argument "Audit.create: non-positive capacity") (fun () ->
      ignore (Audit.create ~capacity:0 ()))

let test_audit_json () =
  let a = Audit.create () in
  Audit.set_context a ~step:7 ~pc:42 ~flow:"addr-dep" ();
  Audit.record_decision a ~algorithm:"alg1" ~space:3 ~pollution:12.5
    [
      { Audit.tag = "network#1"; under = -0.5; over = 0.25; marginal = -0.25;
        verdict = Audit.Propagate };
    ];
  Audit.record_eviction a ~at:"mem:291" ~victim:"file#2" ~incoming:"network#1"
    ();
  Audit.record_selection a ~step:8 ~policy:"mitos" ~flow:"ctrl-dep"
    ~candidates:[ "a\"b" ] ~chosen:[] ();
  Audit.record_note a "case:x";
  let expected =
    "{\"id\":0,\"kind\":\"decision\",\"step\":7,\"pc\":42,\"alg\":\"alg1\",\
     \"flow\":\"addr-dep\",\"space\":3,\"pollution\":12.5,\"tags\":[{\"tag\":\
     \"network#1\",\"under\":-0.5,\"over\":0.25,\"marginal\":-0.25,\
     \"verdict\":\"propagate\"}]}\n\
     {\"id\":1,\"kind\":\"eviction\",\"step\":7,\"pc\":42,\"at\":\"mem:291\",\
     \"victim\":\"file#2\",\"incoming\":\"network#1\"}\n\
     {\"id\":2,\"kind\":\"selection\",\"step\":8,\"pc\":42,\"policy\":\
     \"mitos\",\"flow\":\"ctrl-dep\",\"candidates\":[\"a\\\"b\"],\"chosen\":\
     []}\n\
     {\"id\":3,\"kind\":\"note\",\"step\":7,\"pc\":42,\"text\":\"case:x\"}\n"
  in
  Alcotest.(check string) "byte-exact jsonl" expected (Audit.to_jsonl a)

let test_audit_tracer_crosslink () =
  let tracer = Tracer.create ~clock:(Obs_clock.logical ()) () in
  let a = Audit.create () in
  Audit.record_note a "before-link";
  Audit.link_tracer a tracer;
  Audit.record_note a "after-link";
  let instants =
    Array.to_list (Tracer.events tracer)
    |> List.filter_map (function
         | Tracer.Instant { name = "audit"; args; _ } -> Some args
         | _ -> None)
  in
  Alcotest.(check int) "one instant after linking" 1 (List.length instants);
  Alcotest.(check (list (pair string string)))
    "instant carries id and kind"
    [ ("id", "1"); ("kind", "note") ]
    (List.hd instants)

(* -- Obs ------------------------------------------------------------ *)

let test_disabled_is_noop () =
  let o = Obs.disabled in
  Alcotest.(check bool) "disabled" false (Obs.enabled o);
  let ran = ref false in
  let r = Obs.with_span o "x" (fun () -> ran := true; 7) in
  Alcotest.(check int) "with_span passthrough" 7 r;
  Alcotest.(check bool) "function ran" true !ran;
  let h = Histogram.create () in
  ignore (Obs.time o h (fun () -> ()));
  Alcotest.(check int) "no observation" 0 (Histogram.count h);
  Alcotest.(check int) "no trace events" 0 (Tracer.length (Obs.tracer o))

let test_enabled_records () =
  let o = Obs.create () in
  Alcotest.(check bool) "enabled" true (Obs.enabled o);
  let h = Registry.histogram (Obs.registry o) "h" in
  ignore (Obs.time o h (fun () -> ()));
  Alcotest.(check int) "observed once" 1 (Histogram.count h);
  ignore (Obs.with_span o "s" (fun () -> ()));
  Alcotest.(check int) "span recorded" 2 (Tracer.length (Obs.tracer o))

let test_obs_determinism () =
  (* the acceptance property, at library scope: two identical runs on
     fresh logical-clock contexts render byte-identical exports *)
  let run () =
    let o = Obs.create () in
    let h =
      Registry.histogram (Obs.registry o) ~lo:1.0 ~growth:2.0 ~buckets:8
        "latency"
    in
    let c = Registry.counter (Obs.registry o) "records" in
    Obs.with_span o "replay" (fun () ->
        for i = 1 to 50 do
          Obs.with_span o "chunk" (fun () ->
              ignore (Obs.time o h (fun () -> ())));
          if i mod 10 = 0 then Registry.incr c
        done);
    (Obs.chrome_trace_json o, Obs.prometheus o, Obs.metrics_json o)
  in
  let t1, p1, j1 = run () in
  let t2, p2, j2 = run () in
  Alcotest.(check string) "trace byte-identical" t1 t2;
  Alcotest.(check string) "prometheus byte-identical" p1 p2;
  Alcotest.(check string) "json byte-identical" j1 j2

(* -- engine integration --------------------------------------------- *)

let test_engine_instrumentation () =
  let module W = Mitos_workload in
  let built = W.Netbench.build ~seed:3 ~chunks:1 () in
  let trace = W.Workload.record built in
  let obs = Obs.create () in
  let engine =
    W.Workload.replay ~obs ~sample_every:64
      ~policy:Mitos_dift.Policies.propagate_all
      (W.Netbench.build ~seed:3 ~chunks:1 ())
      trace
  in
  let counters = Mitos_dift.Engine.counters engine in
  let text = Obs.prometheus obs in
  Alcotest.(check bool) "records counter exported" true
    (string_contains text
       (Printf.sprintf "mitos_engine_records_total %d" counters.steps));
  Alcotest.(check bool) "latency histogram exported" true
    (string_contains text "mitos_engine_record_latency_ticks_count");
  Alcotest.(check bool) "replay throughput exported" true
    (string_contains text "mitos_replay_records_total");
  Alcotest.(check bool) "run-level sampler exported" true
    (string_contains text "mitos_run_tainted_bytes");
  Obs.finish obs;
  Alcotest.(check bool) "replay span traced" true
    (Array.exists
       (function Tracer.Begin { name = "replay"; _ } -> true | _ -> false)
       (Tracer.events (Obs.tracer obs)))

let test_engine_double_instrument_rejected () =
  let module W = Mitos_workload in
  let built = W.Netbench.build ~seed:3 ~chunks:1 () in
  let engine =
    W.Workload.engine_of ~policy:Mitos_dift.Policies.propagate_all built
  in
  let obs = Obs.create () in
  Mitos_dift.Engine.instrument engine obs;
  Alcotest.(check bool) "second instrument raises" true
    (try
       Mitos_dift.Engine.instrument engine obs;
       false
     with Invalid_argument _ -> true)

(* -- Threshold rules ------------------------------------------------- *)

let test_health_parse_rule () =
  let ok s expected =
    match Alerts.parse_threshold s with
    | Error e -> Alcotest.fail (Printf.sprintf "%S rejected: %s" s e)
    | Ok r ->
      Alcotest.(check string) ("round-trip " ^ s) expected
        (Alerts.rule_to_string r)
  in
  ok "over_taint_ratio<=1" "over_taint_ratio<=1";
  ok "slo1:decision_p99_ticks<64" "slo1:decision_p99_ticks<64";
  ok "eviction_rate>=0.25" "eviction_rate>=0.25";
  ok "hot:tag_space_occupancy>0.9" "hot:tag_space_occupancy>0.9";
  let bad s =
    match Alerts.parse_threshold s with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (Printf.sprintf "accepted malformed %S" s)
  in
  bad ""; bad "nocmp"; bad "x<="; bad "<=1"; bad "x<=notafloat";
  bad "x==1"

let test_health_pending_then_breach () =
  let r = Alerts.threshold ~signal:"over_taint_ratio" ~cmp:Alerts.Le ~bound:0.5 () in
  let h = Alerts.create ~rules:[ r ] () in
  Alcotest.(check bool) "pending is healthy" true (Alerts.healthy h);
  Alcotest.(check int) "pending 200" 200 (if Alerts.healthy h then 200 else 503);
  Alerts.observe h ~at:1.0 [ ("over_taint_ratio", 0.4) ];
  Alcotest.(check bool) "within bound" true (Alerts.healthy h);
  Alerts.observe h ~at:2.0 [ ("over_taint_ratio", 0.9) ];
  Alcotest.(check bool) "breached" false (Alerts.healthy h);
  Alcotest.(check int) "503" 503 (if Alerts.healthy h then 200 else 503);
  Alerts.observe h ~at:3.0 [ ("over_taint_ratio", 0.91) ];
  Alerts.observe h ~at:4.0 [ ("over_taint_ratio", 0.3) ];
  Alcotest.(check bool) "recovered" true (Alerts.healthy h);
  Alerts.observe h ~at:5.0 [ ("over_taint_ratio", 0.99) ];
  (* only ok->breach transitions are history events: 2.0 and 5.0, the
     sustained 3.0 violation is not a second breach *)
  (match Alerts.breaches h with
  | [ b1; b2 ] ->
    check_float "first edge" 2.0 b1.Alerts.at;
    check_float "second edge" 5.0 b2.Alerts.at
  | bs -> Alcotest.fail (Printf.sprintf "expected 2 breaches, got %d"
                           (List.length bs)));
  Alcotest.(check bool) "render says BREACH" true
    (string_contains (snd (Alerts.healthz h)) "BREACH")

let test_health_window () =
  let r = Alerts.threshold ~signal:"s" ~cmp:Alerts.Le ~bound:10.0 () in
  let h = Alerts.create ~window:4.0 ~rules:[ r ] () in
  Alerts.observe h ~at:0.0 [ ("s", 100.0) ];
  Alcotest.(check bool) "spike breaches" false (Alerts.healthy h);
  (* the spike ages out of the 4-step window; the trailing mean of the
     recent calm samples is what's judged *)
  Alerts.observe h ~at:2.0 [ ("s", 2.0) ];
  Alerts.observe h ~at:5.0 [ ("s", 4.0) ];
  Alerts.observe h ~at:6.0 [ ("s", 6.0) ];
  Alcotest.(check bool) "window mean ok" true (Alerts.healthy h);
  match Alerts.breaching h with
  | [] -> ()
  | _ -> Alcotest.fail "no current breach expected"

let test_health_breach_history_bounded () =
  (* 2000 ok->breach flips: the total counts them all, the kept
     history and the rendered bodies hold only the newest 1024 *)
  let r = Alerts.threshold ~signal:"s" ~cmp:Alerts.Le ~bound:1.0 () in
  let h = Alerts.create ~rules:[ r ] () in
  for i = 1 to 2000 do
    Alerts.observe h ~at:(float_of_int (2 * i)) [ ("s", 5.0) ];
    Alerts.observe h ~at:(float_of_int ((2 * i) + 1)) [ ("s", 0.0) ]
  done;
  let kept = Alerts.breaches h in
  Alcotest.(check int) "newest 1024 kept" 1024 (List.length kept);
  check_float "oldest kept is flip 977" (2.0 *. 977.0)
    (List.hd kept).Alerts.at;
  check_float "newest kept is flip 2000" 4000.0
    (List.nth kept 1023).Alerts.at;
  let _, body = Alerts.healthz h in
  Alcotest.(check bool) "total counts every flip" true
    (string_contains body "breaches_total: 2000\n");
  let count_lines prefix text =
    List.length
      (List.filter
         (String.starts_with ~prefix)
         (String.split_on_char '\n' text))
  in
  Alcotest.(check int) "render lists the kept breaches" 1024
    (count_lines "breach at " body);
  let json = Alerts.healthz_json h in
  Alcotest.(check bool) "json keeps flip 977" true
    (string_contains json "\"at\":1954,");
  Alcotest.(check bool) "json drops flip 976" false
    (string_contains json "\"at\":1952,")

let test_health_tracer_instant () =
  let r = Alerts.threshold ~signal:"s" ~cmp:Alerts.Lt ~bound:1.0 () in
  let h = Alerts.create ~rules:[ r ] () in
  let tracer = Tracer.create ~clock:(Obs_clock.logical ()) () in
  Alerts.link_tracer h tracer;
  Alerts.observe h ~at:1.0 [ ("s", 5.0) ];
  Alcotest.(check bool) "slo_breach instant emitted" true
    (Array.exists
       (function
         | Tracer.Instant { name = "slo_breach"; _ } -> true
         | _ -> false)
       (Tracer.events tracer))

(* -- Server ---------------------------------------------------------- *)

let ping_routes hits =
  [
    Server.route ~file:"ping.txt" ~describe:"ping" "/ping" (fun () ->
        incr hits;
        Server.text "pong\n");
    Server.route ~file:"boom.txt" ~describe:"raises" "/boom" (fun () ->
        failwith "payload exploded");
    Server.route ~file:"sick.txt" ~describe:"non-200 payload" "/sick"
      (fun () -> Server.text ~status:503 "unwell\n");
  ]

let test_server_serve_fetch_stop () =
  let hits = ref 0 in
  let server = Server.start (ping_routes hits) in
  let fetch path =
    Server.fetch ~host:"127.0.0.1" ~port:(Server.port server) ~path ()
  in
  (match fetch "/ping" with
  | Ok (200, body) -> Alcotest.(check string) "body" "pong\n" body
  | Ok (st, _) -> Alcotest.fail (Printf.sprintf "/ping status %d" st)
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "payload thunk ran" 1 !hits;
  (match fetch "/ping?verbose=1" with
  | Ok (200, _) -> ()
  | _ -> Alcotest.fail "query string should be stripped");
  (match fetch "/" with
  | Ok (200, body) ->
    Alcotest.(check bool) "index lists routes" true
      (string_contains body "/ping")
  | _ -> Alcotest.fail "index fetch failed");
  (match fetch "/nope" with
  | Ok (404, _) -> ()
  | _ -> Alcotest.fail "expected 404");
  (match fetch "/boom" with
  | Ok (500, _) -> ()
  | _ -> Alcotest.fail "expected 500 from raising payload");
  (match fetch "/sick" with
  | Ok (503, body) -> Alcotest.(check string) "non-200 body" "unwell\n" body
  | _ -> Alcotest.fail "expected 503 pass-through");
  let port = Server.port server in
  Server.stop server;
  Server.stop server;
  (* idempotent *)
  match Server.fetch ~host:"127.0.0.1" ~port ~path:"/ping" () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "stopped server still answering"

let test_server_rejects_non_get () =
  let server = Server.start (ping_routes (ref 0)) in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      let addr =
        Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port server)
      in
      let sock = Unix.socket PF_INET SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect sock addr;
          let req = "POST /ping HTTP/1.0\r\n\r\n" in
          ignore (Unix.write_substring sock req 0 (String.length req));
          let buf = Bytes.create 64 in
          let n = Unix.read sock buf 0 64 in
          let status_line = Bytes.sub_string buf 0 n in
          Alcotest.(check bool) "405" true
            (string_contains status_line "405")))

let test_server_idle_socket_does_not_stall () =
  (* a scraper that connects and never asks must not hold up the next
     one; a head that arrives in pieces is still one request *)
  let server = Server.start (ping_routes (ref 0)) in
  let port = Server.port server in
  let connect () =
    match Netio.connect_tcp ~timeout:2.0 ~host:"127.0.0.1" ~port () with
    | Ok fd -> fd
    | Error e -> Alcotest.fail e
  in
  let idle = connect () in
  Fun.protect
    ~finally:(fun () ->
      Netio.close_quietly idle;
      Server.stop server)
    (fun () ->
      Unix.sleepf 0.05;
      let t0 = Unix.gettimeofday () in
      (match Server.fetch ~host:"127.0.0.1" ~port ~path:"/ping" () with
      | Ok (200, _) -> ()
      | Ok (st, _) -> Alcotest.failf "/ping status %d" st
      | Error e -> Alcotest.fail e);
      let took = Unix.gettimeofday () -. t0 in
      Alcotest.(check bool)
        (Printf.sprintf "/ping behind an idle socket within 1 s (took %.3f s)"
           took)
        true (took < 1.0);
      let piecewise = connect () in
      Fun.protect
        ~finally:(fun () -> Netio.close_quietly piecewise)
        (fun () ->
          List.iter
            (fun piece ->
              Netio.write_all piecewise piece;
              Unix.sleepf 0.05)
            [ "GET /pi"; "ng HTTP/1.0\r\nHost: x\r"; "\n\r\n" ];
          Alcotest.(check bool) "head in three pieces gets 200" true
            (string_contains (Netio.read_to_eof piecewise) "HTTP/1.0 200")))

(* A session that raises costs its own connection, not the loop: on a
   single loop domain, a fresh connection is still answered. *)
let test_netloop_contains_session_exceptions () =
  let session (stream : Netloop.stream) data pos : Netloop.action =
    if pos < String.length data then
      if data.[pos] = '!' then failwith "marker byte"
      else Reply (String.sub data pos 1, pos + 1)
    else match stream with Open -> Need_more | Eof | Timed_out -> Reply_close ""
  in
  let sock, port = Netio.listen_tcp ~host:"127.0.0.1" ~port:0 () in
  let stop = Netloop.start ~domains:1 ~timeout:2.0 ~accept:(fun () -> session) sock in
  let exchange bytes =
    match Netio.connect_tcp ~timeout:2.0 ~host:"127.0.0.1" ~port () with
    | Error e -> Alcotest.fail e
    | Ok fd ->
      Fun.protect
        ~finally:(fun () -> Netio.close_quietly fd)
        (fun () ->
          Netio.write_all fd bytes;
          Unix.shutdown fd Unix.SHUTDOWN_SEND;
          Netio.read_to_eof fd)
  in
  Fun.protect ~finally:stop (fun () ->
      Alcotest.(check string) "echo before" "ok" (exchange "ok");
      Alcotest.(check string) "raising session: replies dropped, closed" ""
        (exchange "ab!cd");
      Alcotest.(check string) "fresh connection still answered" "hi"
        (exchange "hi"))

let test_server_oneshot_deterministic () =
  let routes = ping_routes (ref 0) in
  (* /boom raises: oneshot must propagate, so drop it for this test *)
  let routes = List.filter (fun r -> r.Server.path <> "/boom") routes in
  let dir = Filename.temp_file "mitos_oneshot" "" in
  Sys.remove dir;
  let written = Server.oneshot ~dir routes in
  Alcotest.(check (list string)) "files in route order"
    [ "ping.txt"; "sick.txt" ]
    (List.map fst written);
  let slurp path =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let first = List.map (fun (_, p) -> slurp p) written in
  let again = List.map (fun (_, p) -> slurp p) (Server.oneshot ~dir routes) in
  Alcotest.(check (list string)) "byte-identical on re-run" first again;
  Alcotest.(check string) "payload body written" "pong\n" (List.hd first);
  List.iter (fun (_, p) -> Sys.remove p) written;
  Unix.rmdir dir

let test_server_oneshot_propagates () =
  let dir = Filename.temp_file "mitos_oneshot" "" in
  Sys.remove dir;
  Alcotest.(check bool) "payload exception propagates" true
    (try
       ignore (Server.oneshot ~dir (ping_routes (ref 0)));
       false
     with Failure _ -> true);
  (* the routes before the raising one were written *)
  Sys.remove (Filename.concat dir "ping.txt");
  Unix.rmdir dir

let test_parse_url () =
  let ok s expected =
    match Server.parse_url s with
    | Ok got ->
      let render (h, p, path) = Printf.sprintf "%s|%d|%s" h p path in
      Alcotest.(check string) s (render expected) (render got)
    | Error e -> Alcotest.fail (Printf.sprintf "%S rejected: %s" s e)
  in
  ok "http://127.0.0.1:9100/metrics" ("127.0.0.1", 9100, "/metrics");
  ok "127.0.0.1:9100" ("127.0.0.1", 9100, "/");
  ok "localhost:80/healthz" ("localhost", 80, "/healthz");
  let bad s =
    match Server.parse_url s with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %S" s)
  in
  bad "no-port"; bad "host:notaport/x"; bad ""

(* -- escape_label round-trip ----------------------------------------- *)

let unescape_label s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let rec go i =
    if i < n then
      if s.[i] = '\\' && i + 1 < n then begin
        (match s.[i + 1] with
        | '\\' -> Buffer.add_char buf '\\'
        | '"' -> Buffer.add_char buf '"'
        | 'n' -> Buffer.add_char buf '\n'
        | c ->
          Buffer.add_char buf '\\';
          Buffer.add_char buf c);
        go (i + 2)
      end
      else begin
        Buffer.add_char buf s.[i];
        go (i + 1)
      end
  in
  go 0;
  Buffer.contents buf

(* -- Propagation ---------------------------------------------------- *)

let test_propagation_deterministic () =
  let mk () = Propagation.create ~seed:3 (Obs_clock.logical ()) in
  let a = Propagation.fresh (mk ()) and b = Propagation.fresh (mk ()) in
  Alcotest.(check string) "trace id is a clock/seed function"
    a.Propagation.trace_id b.Propagation.trace_id;
  Alcotest.(check string) "span id too" a.Propagation.span_id
    b.Propagation.span_id;
  let p = mk () in
  let c1 = Propagation.fresh p and c2 = Propagation.fresh p in
  Alcotest.(check bool) "consecutive traces distinct" true
    (c1.Propagation.trace_id <> c2.Propagation.trace_id)

let test_propagation_validity_and_child () =
  let p = Propagation.create (Obs_clock.logical ()) in
  let ctx = Propagation.fresh p in
  Alcotest.(check bool) "trace id valid" true
    (Propagation.is_valid_trace_id ctx.Propagation.trace_id);
  Alcotest.(check bool) "span id valid" true
    (Propagation.is_valid_span_id ctx.Propagation.span_id);
  let child = Propagation.child p ctx in
  Alcotest.(check string) "child keeps the trace" ctx.Propagation.trace_id
    child.Propagation.trace_id;
  Alcotest.(check bool) "child gets its own span" true
    (child.Propagation.span_id <> ctx.Propagation.span_id);
  Alcotest.(check bool) "bad ids rejected" false
    (Propagation.is_valid_trace_id (String.make 32 'g')
    || Propagation.is_valid_trace_id "abc"
    || Propagation.is_valid_span_id (String.make 17 'a'));
  match Propagation.to_args ctx with
  | [ ("trace_id", t); ("span_id", sp) ] ->
    Alcotest.(check string) "args trace" ctx.Propagation.trace_id t;
    Alcotest.(check string) "args span" ctx.Propagation.span_id sp
  | _ -> Alcotest.fail "to_args shape"

(* -- Contended ------------------------------------------------------ *)

let test_contended_counts () =
  let m = Contended.create "t_counts" in
  Contended.lock m;
  Contended.unlock m;
  Contended.with_lock m (fun () -> ());
  let st = Contended.stats m in
  Alcotest.(check int) "acquisitions" 2 st.Contended.acquisitions;
  Alcotest.(check int) "uncontended so far" 0 st.Contended.contended;
  Alcotest.(check bool) "hold accounted" true (st.Contended.hold_ns_total >= 0);
  Alcotest.(check bool) "max <= total" true
    (st.Contended.hold_ns_max <= max st.Contended.hold_ns_total 0
    || st.Contended.acquisitions = 0);
  Alcotest.(check string) "name" "t_counts" (Contended.name m)

let test_contended_contention_counted () =
  let m = Contended.create "t_contend" in
  Contended.lock m;
  let d =
    Domain.spawn (fun () -> Contended.with_lock m (fun () -> 42))
  in
  (* hold long enough that the domain's try_lock fast path fails *)
  Unix.sleepf 0.05;
  Contended.unlock m;
  Alcotest.(check int) "domain got the lock" 42 (Domain.join d);
  let st = Contended.stats m in
  Alcotest.(check int) "two acquisitions" 2 st.Contended.acquisitions;
  Alcotest.(check int) "one contended" 1 st.Contended.contended;
  Alcotest.(check bool) "wait time recorded" true
    (st.Contended.wait_ns_total > 0)

let test_contended_aggregate_and_wait () =
  let a1 = Contended.create "t_agg" and a2 = Contended.create "t_agg" in
  Contended.lock a1;
  Contended.unlock a1;
  Contended.lock a2;
  Contended.unlock a2;
  (match List.assoc_opt "t_agg" (Contended.aggregate ()) with
  | Some st -> Alcotest.(check int) "same-name stats summed" 2
                 st.Contended.acquisitions
  | None -> Alcotest.fail "aggregate missing t_agg");
  Alcotest.(check bool) "tracked in all ()" true
    (List.memq a1 (Contended.all ()) && List.memq a2 (Contended.all ()));
  (* Condition interop: wait releases and reacquires with accounting *)
  let m = Contended.create "t_wait" in
  let cond = Condition.create () in
  let ready = ref false in
  let d =
    Domain.spawn (fun () ->
        Contended.with_lock m (fun () ->
            while not !ready do
              Contended.wait m cond
            done;
            7))
  in
  Unix.sleepf 0.02;
  Contended.with_lock m (fun () ->
      ready := true;
      Condition.signal cond);
  Alcotest.(check int) "woken waiter finished" 7 (Domain.join d);
  let st = Contended.stats m in
  Alcotest.(check bool) "wakeup reacquisitions counted" true
    (st.Contended.acquisitions >= 3)

(* -- Profile -------------------------------------------------------- *)

(* a controllable clock: spans get exactly the ticks we set *)
let scripted_obs () =
  let t = ref 0 in
  (Obs.create ~clock:(Obs_clock.of_fun (fun () -> !t)) (), t)

let test_profile_fold_self_times () =
  let obs, t = scripted_obs () in
  Obs.with_span obs "outer" (fun () ->
      t := 2;
      Obs.with_span obs "inner" (fun () -> t := 7);
      t := 10);
  let rows = Profile.fold (Obs.tracer obs) in
  (match rows with
  | [ outer; inner ] ->
    Alcotest.(check (list string)) "outer stack" [ "outer" ] outer.Profile.stack;
    Alcotest.(check int) "outer self = total - child" 5 outer.Profile.self;
    Alcotest.(check int) "outer total" 10 outer.Profile.total;
    Alcotest.(check (list string)) "inner stack" [ "outer"; "inner" ]
      inner.Profile.stack;
    Alcotest.(check int) "inner self" 5 inner.Profile.self;
    Alcotest.(check int) "inner count" 1 inner.Profile.count
  | rows -> Alcotest.failf "expected 2 rows, got %d" (List.length rows));
  Alcotest.(check string) "collapsed rendering, ns-scaled"
    "outer 5000\nouter;inner 5000\n"
    (Profile.collapse ~scale:1000 (Obs.tracer obs));
  (* a synthetic root merges tracers into one flamegraph namespace *)
  match Profile.fold ~root:"client" (Obs.tracer obs) with
  | { Profile.stack = "client" :: _; _ } :: _ -> ()
  | _ -> Alcotest.fail "root frame missing"

let test_profile_sanitizes_and_tops () =
  let obs, t = scripted_obs () in
  Obs.with_span obs "a b;c" (fun () -> t := 3);
  t := 10;
  Obs.with_span obs "heavy" (fun () -> t := 100);
  let rows = Profile.fold (Obs.tracer obs) in
  Alcotest.(check bool) "frame separators sanitized" true
    (List.exists (fun r -> r.Profile.stack = [ "a_b_c" ]) rows);
  match Profile.top ~n:1 rows with
  | [ r ] -> Alcotest.(check (list string)) "heaviest first" [ "heavy" ]
               r.Profile.stack
  | _ -> Alcotest.fail "top ~n:1 must return one row"

let test_tracer_complete_retrospective () =
  let obs, t = scripted_obs () in
  Obs.with_span obs "live" (fun () -> t := 4);
  Tracer.complete (Obs.tracer obs) ~ts0:4 ~ts1:9
    ~args:[ ("trace_id", String.make 32 'a') ]
    "server.decide";
  let rows = Profile.fold (Obs.tracer obs) in
  Alcotest.(check bool) "retrospective span folded" true
    (List.exists
       (fun r -> r.Profile.stack = [ "server.decide" ] && r.Profile.self = 5)
       rows);
  Alcotest.(check bool) "args land in the chrome trace" true
    (string_contains
       (Chrome_trace.to_jsonl (Obs.tracer obs))
       (String.make 32 'a'))

(* -- Runtime -------------------------------------------------------- *)

let test_runtime_sample_gauges () =
  let reg = Registry.create () in
  (* touch a lock so the lock gauges have something to export *)
  let m = Contended.create "t_runtime" in
  Contended.with_lock m (fun () -> ());
  Runtime.sample reg;
  let prom = Registry.to_prometheus reg in
  Alcotest.(check bool) "gc gauges exported" true
    (string_contains prom "mitos_gc_minor_collections"
    && string_contains prom "mitos_gc_heap_words");
  Alcotest.(check bool) "lock gauges exported with the lock label" true
    (string_contains prom "mitos_lock_acquisitions_total"
    && string_contains prom "lock=\"t_runtime\"");
  let sigs = Runtime.signals () in
  (match List.assoc_opt "lock_t_runtime_contention" sigs with
  | Some share ->
    Alcotest.(check bool) "contention share in [0,1]" true
      (share >= 0.0 && share <= 1.0)
  | None -> Alcotest.fail "contention signal missing");
  (* background sampler starts and stops cleanly *)
  let sampler = Runtime.start ~period:0.005 reg in
  Unix.sleepf 0.02;
  Runtime.stop sampler

let test_runtime_gc_words_move () =
  (* a sample taken on one domain must count the words another domain
     allocated; all but the worker's last minor heap has been collected,
     and so published, by the time it is joined *)
  let reg = Registry.create () in
  let minor_words () =
    Runtime.sample_gc reg;
    Registry.gauge_value
      (Registry.gauge reg
         ~labels:[ ("domain", string_of_int (Domain.self () :> int)) ]
         "mitos_gc_minor_words")
  in
  let minor_heap = (Gc.get ()).Gc.minor_heap_size in
  let words = 4 * minor_heap in
  let before = minor_words () in
  Domain.join
    (Domain.spawn (fun () ->
         (* a ref is a header and one field *)
         for i = 1 to words / 2 do
           ignore (Sys.opaque_identity (ref i))
         done));
  let after = minor_words () in
  Alcotest.(check bool)
    (Printf.sprintf "%d words on another domain counted (moved %.0f)" words
       (after -. before))
    true
    (after -. before >= float_of_int (words - minor_heap))

(* -- Server query routing ------------------------------------------- *)

let test_server_route_q () =
  let echo =
    Server.route_q ~file:"echo.txt" "/echo" (fun query ->
        Server.text
          (String.concat ";"
             (List.map (fun (k, v) -> k ^ "=" ^ v) query)))
  in
  let server = Server.start [ echo ] in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      let fetch path =
        Server.fetch ~host:"127.0.0.1" ~port:(Server.port server) ~path ()
      in
      (match fetch "/echo?a=1&b=2" with
      | Ok (200, body) -> Alcotest.(check string) "pairs in order" "a=1;b=2" body
      | _ -> Alcotest.fail "query fetch failed");
      (match fetch "/echo?flag" with
      | Ok (200, body) ->
        Alcotest.(check string) "bare key gets empty value" "flag=" body
      | _ -> Alcotest.fail "bare-key fetch failed");
      match fetch "/echo" with
      | Ok (200, body) -> Alcotest.(check string) "no query" "" body
      | _ -> Alcotest.fail "no-query fetch failed")

let qcheck_escape_label_roundtrip =
  QCheck.Test.make ~name:"escape_label round-trips through unescape"
    ~count:500 QCheck.string (fun s ->
      unescape_label (Registry.escape_label s) = s)

let qcheck_escape_label_no_raw_specials =
  QCheck.Test.make ~name:"escaped labels contain no raw quote/newline"
    ~count:500 QCheck.string (fun s ->
      let escaped = Registry.escape_label s in
      (* scan left to right: a quote or newline may only appear as
         part of a backslash escape *)
      let n = String.length escaped in
      let rec ok i =
        if i >= n then true
        else if escaped.[i] = '\\' then i + 1 < n && ok (i + 2)
        else if escaped.[i] = '"' || escaped.[i] = '\n' then false
        else ok (i + 1)
      in
      ok 0)

(* -- Histogram.merge ------------------------------------------------ *)

(* nan-safe structural fingerprint: OCaml [nan = nan] is false, so
   min/max of empty histograms go through a formatter instead *)
let hist_fingerprint h =
  Printf.sprintf "%s|%s|%d|%.17g|%.17g|%.17g"
    (String.concat ","
       (List.map (Printf.sprintf "%.17g")
          (Array.to_list (Histogram.bounds h))))
    (String.concat ","
       (List.map (fun (_, c) -> string_of_int c)
          (Array.to_list (Histogram.buckets h))))
    (Histogram.count h) (Histogram.sum h) (Histogram.min_value h)
    (Histogram.max_value h)

let merge_layout () = Histogram.create ~lo:1.0 ~growth:2.0 ~buckets:6 ()

let hist_of obs =
  let h = merge_layout () in
  List.iter (Histogram.observe h) obs;
  h

let test_histogram_merge () =
  let a = hist_of [ 0.5; 3.0; 100.0 ] and b = hist_of [ 1.0; 7.0 ] in
  let m = Histogram.merge a b in
  Alcotest.(check string) "merge = observing the union"
    (hist_fingerprint (hist_of [ 0.5; 3.0; 100.0; 1.0; 7.0 ]))
    (hist_fingerprint m);
  Alcotest.(check string) "inputs untouched"
    (hist_fingerprint (hist_of [ 0.5; 3.0; 100.0 ]))
    (hist_fingerprint a);
  (* one empty side: min/max come from the non-empty side *)
  let m' = Histogram.merge a (merge_layout ()) in
  Alcotest.(check string) "empty is identity" (hist_fingerprint a)
    (hist_fingerprint m');
  (match
     Histogram.merge a (Histogram.create ~lo:1.0 ~growth:2.0 ~buckets:5 ())
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "layout mismatch accepted")

(* finite magnitudes spanning every bucket including overflow (the
   last finite bound of the 6-bucket layout is 32); infinities are
   excluded because an observed +inf makes sums and interpolation
   against max_value meaningless *)
let obs_gen = QCheck.float_range 0.0 1e6
let obs_list_gen = QCheck.(list_of_size Gen.(0 -- 20) obs_gen)

(* like [hist_fingerprint] equality, but tolerant of float-addition
   rounding in [sum] — merge adds sums pairwise, so different
   association orders differ in the last bits *)
let hist_approx_equal a b =
  let sum_close =
    let sa = Histogram.sum a and sb = Histogram.sum b in
    sa = sb || Float.abs (sa -. sb) <= 1e-9 *. Float.max 1.0 (Float.abs sa)
  in
  Histogram.bounds a = Histogram.bounds b
  && Array.map snd (Histogram.buckets a) = Array.map snd (Histogram.buckets b)
  && Histogram.count a = Histogram.count b
  && sum_close
  && Printf.sprintf "%.17g" (Histogram.min_value a)
     = Printf.sprintf "%.17g" (Histogram.min_value b)
  && Printf.sprintf "%.17g" (Histogram.max_value a)
     = Printf.sprintf "%.17g" (Histogram.max_value b)

let qcheck_hist_merge_commutative =
  QCheck.Test.make ~name:"Histogram.merge commutative" ~count:200
    (QCheck.pair obs_list_gen obs_list_gen) (fun (xs, ys) ->
      let a () = hist_of xs and b () = hist_of ys in
      hist_fingerprint (Histogram.merge (a ()) (b ()))
      = hist_fingerprint (Histogram.merge (b ()) (a ())))

let qcheck_hist_merge_associative =
  QCheck.Test.make ~name:"Histogram.merge associative" ~count:200
    (QCheck.triple obs_list_gen obs_list_gen obs_list_gen)
    (fun (xs, ys, zs) ->
      let a () = hist_of xs and b () = hist_of ys and c () = hist_of zs in
      hist_approx_equal
        (Histogram.merge (Histogram.merge (a ()) (b ())) (c ()))
        (Histogram.merge (a ()) (Histogram.merge (b ()) (c ()))))

let qcheck_hist_merge_empty_identity =
  QCheck.Test.make ~name:"Histogram.merge empty identity" ~count:200
    obs_list_gen (fun xs ->
      hist_fingerprint (Histogram.merge (hist_of xs) (merge_layout ()))
      = hist_fingerprint (hist_of xs)
      && hist_fingerprint (Histogram.merge (merge_layout ()) (hist_of xs))
         = hist_fingerprint (hist_of xs))

let qcheck_hist_merge_quantile_envelope =
  (* a merged quantile can never leave the envelope of the per-part
     quantiles — the property that makes bucket-wise merging the
     correct way to get fleet percentiles (averaging per-node
     percentiles does violate this) *)
  QCheck.Test.make ~name:"Histogram.merge quantile envelope" ~count:200
    (QCheck.triple
       (QCheck.list_of_size QCheck.Gen.(1 -- 20) obs_gen)
       (QCheck.list_of_size QCheck.Gen.(1 -- 20) obs_gen)
       (QCheck.float_range 0.01 0.99))
    (fun (xs, ys, q) ->
      let qa = Histogram.quantile (hist_of xs) q
      and qb = Histogram.quantile (hist_of ys) q
      and qm = Histogram.quantile (Histogram.merge (hist_of xs) (hist_of ys)) q in
      let lo = Float.min qa qb and hi = Float.max qa qb in
      let eps = 1e-9 *. Float.max 1.0 hi in
      qm >= lo -. eps && qm <= hi +. eps)

(* -- Registry.Snapshot ---------------------------------------------- *)

module Snapshot = Registry.Snapshot

let sample_registry () =
  let reg = Registry.create () in
  let c = Registry.counter reg ~labels:[ ("op", "decide") ] "requests_total" in
  Registry.add c 41;
  let g = Registry.gauge reg "occupancy" in
  Registry.set_gauge g 0.75;
  let h =
    Registry.histogram reg ~lo:1.0 ~growth:2.0 ~buckets:6 "latency_ns"
  in
  List.iter (Histogram.observe h) [ 0.5; 3.0; 9.0; 1e6 ];
  reg

let test_snapshot_codec_roundtrip () =
  let snap = Registry.snapshot (sample_registry ()) in
  let bytes = Snapshot.encode snap in
  let back = Snapshot.decode bytes in
  Alcotest.(check string) "encode . decode fixpoint" bytes
    (Snapshot.encode back);
  Alcotest.(check string) "prometheus text survives the wire"
    (Snapshot.to_prometheus snap)
    (Snapshot.to_prometheus back);
  Alcotest.(check string) "json text survives the wire"
    (Snapshot.to_json snap) (Snapshot.to_json back)

let test_snapshot_adversarial_decode () =
  let bytes = Snapshot.encode (Registry.snapshot (sample_registry ())) in
  let expect_malformed what s =
    match Snapshot.decode s with
    | exception Mitos_util.Codec.Malformed _ -> ()
    | _ -> Alcotest.fail (what ^ " accepted")
  in
  for cut = 1 to String.length bytes - 1 do
    expect_malformed
      (Printf.sprintf "truncation at %d" cut)
      (String.sub bytes 0 cut)
  done;
  expect_malformed "trailing garbage" (bytes ^ "\x00");
  (* value-kind tags are 0/1/2; 9 is undecodable wherever it lands as
     a tag, and elsewhere it corrupts a length or count that the
     histogram validator or the end-of-input check catches — accept
     either a raise or a clean decode (flips inside float payloads
     are legitimate value changes), but never a crash *)
  let flipped = Bytes.of_string bytes in
  Bytes.set flipped (String.length bytes / 2) '\x09';
  (match Snapshot.decode (Bytes.to_string flipped) with
  | _ -> ()
  | exception Mitos_util.Codec.Malformed _ -> ())

let test_snapshot_merge_semantics () =
  let part node =
    Registry.snapshot
      (let reg = Registry.create () in
       let c = Registry.counter reg "requests_total" in
       Registry.add c (if node = "a" then 10 else 32);
       let g = Registry.gauge reg "occupancy" in
       Registry.set_gauge g (if node = "a" then 0.25 else 0.5);
       let h =
         Registry.histogram reg ~lo:1.0 ~growth:2.0 ~buckets:6 "latency_ns"
       in
       Histogram.observe h (if node = "a" then 3.0 else 9.0);
       reg)
  in
  let merged = Snapshot.merge [ ("a", part "a"); ("b", part "b") ] in
  let find name pred =
    List.find_opt
      (fun (r : Snapshot.row) -> r.Snapshot.name = name && pred r)
      merged
  in
  (match find "requests_total" (fun r -> r.Snapshot.labels = []) with
  | Some { Snapshot.value = Snapshot.Counter 42; _ } -> ()
  | _ -> Alcotest.fail "counters did not sum to 42");
  (* gauges never fold: one node-labelled row per part *)
  (match
     find "occupancy" (fun r ->
         r.Snapshot.labels = [ ("node", "a") ])
   with
  | Some { Snapshot.value = Snapshot.Gauge g; _ } ->
    check_float "gauge a kept" 0.25 g
  | _ -> Alcotest.fail "per-node gauge a missing");
  (match
     find "occupancy" (fun r -> r.Snapshot.labels = [ ("node", "b") ])
   with
  | Some { Snapshot.value = Snapshot.Gauge g; _ } ->
    check_float "gauge b kept" 0.5 g
  | _ -> Alcotest.fail "per-node gauge b missing");
  (* same-layout histograms fold bucket-wise *)
  (match find "latency_ns" (fun r -> r.Snapshot.labels = []) with
  | Some { Snapshot.value = Snapshot.Hist h; _ } ->
    let m = Snapshot.to_histogram h in
    Alcotest.(check int) "merged count" 2 (Histogram.count m);
    check_float "merged min" 3.0 (Histogram.min_value m);
    check_float "merged max" 9.0 (Histogram.max_value m)
  | _ -> Alcotest.fail "merged histogram missing");
  (* merge is order-independent after the final sort *)
  Alcotest.(check string) "merge commutes"
    (Snapshot.encode merged)
    (Snapshot.encode (Snapshot.merge [ ("b", part "b"); ("a", part "a") ]))

let test_snapshot_merge_layout_clash () =
  let with_hist buckets v =
    let reg = Registry.create () in
    let h = Registry.histogram reg ~lo:1.0 ~growth:2.0 ~buckets "latency_ns" in
    Histogram.observe h v;
    Registry.snapshot reg
  in
  let merged =
    Snapshot.merge [ ("a", with_hist 6 3.0); ("b", with_hist 8 9.0) ]
  in
  let labelled node =
    List.exists
      (fun (r : Snapshot.row) ->
        r.Snapshot.name = "latency_ns"
        && r.Snapshot.labels = [ ("node", node) ])
      merged
  in
  Alcotest.(check bool) "layout clash keeps node a row" true (labelled "a");
  Alcotest.(check bool) "layout clash keeps node b row" true (labelled "b");
  Alcotest.(check bool) "no unlabelled latency row" false
    (List.exists
       (fun (r : Snapshot.row) ->
         r.Snapshot.name = "latency_ns" && r.Snapshot.labels = [])
       merged)

(* -- Alerts.parse_threshold errors + windowed pending -------------------- *)

let test_health_parse_rule_errors () =
  let expect s msg =
    match Alerts.parse_threshold s with
    | Error e -> Alcotest.(check string) ("error for " ^ s) msg e
    | Ok _ -> Alcotest.fail (Printf.sprintf "accepted malformed %S" s)
  in
  (* bad comparator: '==' is not in the grammar, so nothing splits *)
  expect "x==1" "no comparison in SLO rule \"x==1\"";
  expect "nocomparison" "no comparison in SLO rule \"nocomparison\"";
  expect "" "no comparison in SLO rule \"\"";
  (* empty signal *)
  expect "<=1" "no signal in SLO rule \"<=1\"";
  expect "name:<=1" "no signal in SLO rule \"name:<=1\"";
  (* non-numeric bound *)
  expect "x<=notafloat" "bad bound in SLO rule \"x<=notafloat\"";
  expect "x<=" "bad bound in SLO rule \"x<=\"";
  (* NaN passes float_of_string but no comparison with it holds *)
  expect "x<=nan" "bad bound in SLO rule \"x<=nan\"";
  Alcotest.(check bool) "threshold rejects a NaN bound" true
    (match Alerts.threshold ~signal:"x" ~cmp:Alerts.Le ~bound:nan () with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_health_window_pending_signals () =
  (* a windowed rule whose signal never arrives stays pending — not
     breached, not counted as a judged value *)
  let r = Alerts.threshold ~name:"lonely" ~signal:"never_emitted" ~cmp:Alerts.Le
      ~bound:1.0 ()
  in
  let present = Alerts.threshold ~signal:"seen" ~cmp:Alerts.Le ~bound:10.0 () in
  let h = Alerts.create ~window:4.0 ~rules:[ r; present ] () in
  Alcotest.(check bool) "all pending is healthy" true (Alerts.healthy h);
  Alerts.observe h ~at:1.0 [ ("seen", 3.0) ];
  Alerts.observe h ~at:2.0 [ ("seen", 5.0) ];
  Alcotest.(check bool) "pending rule does not breach" true
    (Alerts.healthy h);
  Alcotest.(check int) "pending rule keeps 200" 200 (if Alerts.healthy h then 200 else 503);
  Alcotest.(check bool) "render marks it pending" true
    (string_contains (snd (Alerts.healthz h)) "pending");
  (* the moment the signal shows up breached, the verdict flips *)
  Alerts.observe h ~at:3.0 [ ("seen", 5.0); ("never_emitted", 2.0) ];
  Alcotest.(check bool) "late signal judged" false (Alerts.healthy h)

(* -- Fleet ----------------------------------------------------------- *)

let fleet_member ?(healthy = true) node mk_snapshot =
  let fetch () =
    Ok
      {
        Fleet.node;
        healthy;
        health = (if healthy then "status: ok\n" else "status: breach\n");
        snapshot = mk_snapshot ();
      }
  in
  (node, fetch)

let counting_snapshot requests () =
  let reg = Registry.create () in
  let c = Registry.counter reg ~labels:[ ("op", "decide") ]
      "mitos_net_requests_total"
  in
  Registry.add c requests;
  Registry.snapshot reg

let test_fleet_scrape_and_signals () =
  let a = ref 10 and b = ref 30 in
  let fleet =
    Fleet.create
      [
        fleet_member "a" (fun () -> (counting_snapshot !a) ());
        fleet_member "b" (fun () -> (counting_snapshot !b) ());
      ]
  in
  Fleet.scrape fleet ~at:1.0;
  let signal name =
    match List.assoc_opt name (Fleet.signals fleet) with
    | Some v -> v
    | None -> Alcotest.fail ("missing signal " ^ name)
  in
  check_float "2 nodes" 2.0 (signal "fleet_nodes");
  check_float "2 up" 2.0 (signal "fleet_up");
  check_float "none unreachable" 0.0 (signal "fleet_unreachable");
  check_float "requests summed" 40.0 (signal "fleet_requests_total");
  check_float "skew = max/mean" 1.5 (signal "fleet_node_skew");
  Alcotest.(check bool) "healthy" true (Fleet.healthy fleet);
  (* second scrape: rates appear *)
  a := 30;
  b := 40;
  Fleet.scrape fleet ~at:3.0;
  (match Fleet.nodes fleet with
  | [ va; vb ] ->
    check_float "rate a" 10.0 va.Fleet.request_rate;
    check_float "rate b" 5.0 vb.Fleet.request_rate
  | _ -> Alcotest.fail "expected two node views");
  check_float "merged follows" 70.0 (signal "fleet_requests_total")

let test_fleet_unreachable_and_staleness () =
  let b_up = ref true in
  let fleet =
    Fleet.create ~stale_after:5.0
      ~slo:(Alerts.create ~rules:Fleet.default_rules ())
      [
        fleet_member "a" (counting_snapshot 10);
        ( "b",
          fun () ->
            if !b_up then (snd (fleet_member "b" (counting_snapshot 20))) ()
            else Error "connection refused" );
      ]
  in
  Fleet.scrape fleet ~at:1.0;
  Alcotest.(check bool) "both up -> 200" true (Fleet.healthy fleet);
  Alcotest.(check int) "200" 200 (Fleet.status_code fleet);
  check_float "merged holds both" 30.0
    (List.assoc "fleet_requests_total" (Fleet.signals fleet));
  (* kill b: unreachable immediately, but its last snapshot still
     merges while fresh *)
  b_up := false;
  Fleet.scrape fleet ~at:2.0;
  Alcotest.(check bool) "one down -> breach" false (Fleet.healthy fleet);
  Alcotest.(check int) "503" 503 (Fleet.status_code fleet);
  Alcotest.(check bool) "healthz names node b" true
    (string_contains (Fleet.render_health fleet) "node b unreachable");
  check_float "one unreachable" 1.0
    (List.assoc "fleet_unreachable" (Fleet.signals fleet));
  check_float "stale merge keeps b's last snapshot" 30.0
    (List.assoc "fleet_requests_total" (Fleet.signals fleet));
  (match Fleet.nodes fleet with
  | [ _; vb ] ->
    Alcotest.(check bool) "b down" false vb.Fleet.up;
    Alcotest.(check bool) "b not yet stale" false vb.Fleet.stale;
    Alcotest.(check bool) "b error kept" true (vb.Fleet.last_error <> None)
  | _ -> Alcotest.fail "expected two node views");
  (* past stale_after: b's snapshot ages out of the merge *)
  Fleet.scrape fleet ~at:10.0;
  check_float "stale node dropped from merge" 10.0
    (List.assoc "fleet_requests_total" (Fleet.signals fleet));
  (match Fleet.nodes fleet with
  | [ _; vb ] -> Alcotest.(check bool) "b stale now" true vb.Fleet.stale
  | _ -> Alcotest.fail "expected two node views");
  (* recovery restores the clean verdict *)
  b_up := true;
  Fleet.scrape fleet ~at:11.0;
  Alcotest.(check bool) "recovered" true (Fleet.healthy fleet)

let test_fleet_node_breach_flips_healthz () =
  let b_healthy = ref true in
  let fleet =
    Fleet.create
      [
        fleet_member "a" (counting_snapshot 5);
        ( "b",
          fun () ->
            (snd (fleet_member ~healthy:!b_healthy "b" (counting_snapshot 5)))
              () );
      ]
  in
  Fleet.scrape fleet ~at:1.0;
  Alcotest.(check int) "all healthy -> 200" 200 (Fleet.status_code fleet);
  b_healthy := false;
  Fleet.scrape fleet ~at:2.0;
  Alcotest.(check int) "one SLO breach -> 503" 503 (Fleet.status_code fleet);
  Alcotest.(check bool) "offender named" true
    (string_contains (Fleet.render_health fleet) "node b breach")

let test_fleet_json_deterministic () =
  let mk () =
    let fleet =
      Fleet.create
        ~slo:(Alerts.create ~rules:Fleet.default_rules ())
        [
          fleet_member "a" (counting_snapshot 10);
          fleet_member "b" (counting_snapshot 20);
        ]
    in
    Fleet.scrape fleet ~at:1.0;
    Fleet.scrape fleet ~at:2.0;
    fleet
  in
  let j1 = Fleet.fleet_json (mk ()) and j2 = Fleet.fleet_json (mk ()) in
  Alcotest.(check string) "fleet_json byte-deterministic" j1 j2;
  Alcotest.(check bool) "carries the verdict" true
    (string_contains j1 "\"healthy\":true");
  Alcotest.(check bool) "signals sorted and present" true
    (string_contains j1 "\"fleet_requests_total\":30");
  let fed = Snapshot.to_prometheus (Fleet.federated (mk ())) in
  Alcotest.(check bool) "federated series node-labelled" true
    (string_contains fed "node=\"a\"" && string_contains fed "node=\"b\"");
  Alcotest.(check bool) "meta series present" true
    (string_contains fed "mitos_fleet_scrapes_total 2"
    && string_contains fed "mitos_fleet_node_up{node=\"a\"} 1")

(* -- Tsdb ------------------------------------------------------------- *)

let test_tsdb_retention_and_clamp () =
  let db = Tsdb.create ~capacity:4 () in
  for i = 0 to 9 do
    Tsdb.add db "s" ~at:(float_of_int i) (float_of_int (i * i))
  done;
  (match Tsdb.series db "s" with
  | None -> Alcotest.fail "series missing"
  | Some ts ->
    Alcotest.(check int) "capacity enforced" 4
      (Mitos_util.Timeseries.length ts));
  Alcotest.(check (option (pair (float 0.0) (float 0.0)))) "newest kept"
    (Some (9.0, 81.0)) (Tsdb.latest db "s");
  (* a stale stamp is clamped forward to the newest time seen *)
  Tsdb.add db "s" ~at:2.0 7.0;
  Alcotest.(check (option (pair (float 0.0) (float 0.0)))) "clamped"
    (Some (9.0, 7.0)) (Tsdb.latest db "s");
  check_float "last_at tracks newest" 9.0 (Tsdb.last_at db);
  Tsdb.observe db ~at:10.0 [ ("s", 1.0); ("other", 2.0) ];
  Alcotest.(check (list string)) "first-observation order"
    [ "s"; "other" ] (Tsdb.names db);
  Alcotest.(check int) "observations counted" 1 (Tsdb.observations db)

let test_tsdb_rate_increase_quantile () =
  let db = Tsdb.create () in
  (* counter with a reset at t=3: 0 10 20 5 15 *)
  List.iteri
    (fun i v -> Tsdb.add db "c" ~at:(float_of_int i) v)
    [ 0.0; 10.0; 20.0; 5.0; 15.0 ];
  check_float "reset-aware increase" 35.0
    (Tsdb.increase db "c" ~at:4.0 ~window:10.0);
  check_float "rate = increase / span" (35.0 /. 4.0)
    (Tsdb.rate db "c" ~at:4.0 ~window:10.0);
  check_float "partial window" 10.0
    (Tsdb.increase db "c" ~at:4.0 ~window:1.0);
  check_float "single-sample rate" 0.0
    (Tsdb.rate db "c" ~at:4.0 ~window:0.0);
  (* nearest-rank quantile over the window's values *)
  let db2 = Tsdb.create () in
  List.iteri
    (fun i v -> Tsdb.add db2 "q" ~at:(float_of_int i) v)
    [ 5.0; 1.0; 3.0; 2.0; 4.0 ];
  check_float "p50 nearest rank" 3.0
    (Tsdb.window_quantile db2 "q" ~at:4.0 ~window:10.0 0.5);
  check_float "p100" 5.0 (Tsdb.window_quantile db2 "q" ~at:4.0 ~window:10.0 1.0);
  check_float "p0 clamps" 1.0
    (Tsdb.window_quantile db2 "q" ~at:4.0 ~window:10.0 0.0);
  Alcotest.(check bool) "empty window is nan" true
    (Float.is_nan (Tsdb.window_quantile db2 "missing" ~at:4.0 ~window:1.0 0.5));
  check_float "window mean" 3.0 (Tsdb.window_mean db2 "q" ~at:4.0 ~window:10.0);
  Alcotest.(check int) "window count" 3
    (Tsdb.window_count db2 "q" ~at:4.0 ~window:2.0)

let test_tsdb_window_mean () =
  let db = Tsdb.create () in
  Tsdb.add db "s" ~at:0.0 10.0;
  Tsdb.add db "s" ~at:5.0 20.0;
  Tsdb.add db "s" ~at:10.0 30.0;
  check_float "from 5" 25.0 (Tsdb.window_mean db "s" ~at:10.0 ~window:5.0);
  check_float "empty window" 0.0
    (Tsdb.window_mean db "s" ~at:(-1.0) ~window:0.5);
  check_float "unknown series" 0.0
    (Tsdb.window_mean db "nope" ~at:10.0 ~window:10.0)

let test_tsdb_window_mean_slides () =
  (* the threshold-rule pattern: a trailing window mean judged as
     samples stream in must track only the samples inside the window *)
  let db = Tsdb.create () in
  let window = 10.0 in
  let expected t =
    (* mean of f(u) = u over [t - window, t] restricted to the sample
       grid 0, 2, 4, ... *)
    let lo = t -. window in
    let samples = ref [] in
    let u = ref 0.0 in
    while !u <= t do
      if !u >= lo then samples := !u :: !samples;
      u := !u +. 2.0
    done;
    List.fold_left ( +. ) 0.0 !samples /. float_of_int (List.length !samples)
  in
  let t = ref 0.0 in
  while !t <= 40.0 do
    Tsdb.add db "s" ~at:!t !t;
    check_float "trailing mean" (expected !t)
      (Tsdb.window_mean db "s" ~at:!t ~window);
    t := !t +. 2.0
  done

let test_tsdb_window_mean_empty_singleton () =
  let db = Tsdb.create () in
  check_float "empty window mean" 0.0
    (Tsdb.window_mean db "s" ~at:0.0 ~window:0.0);
  Tsdb.add db "s" ~at:3.0 7.0;
  check_float "singleton window covers" 7.0
    (Tsdb.window_mean db "s" ~at:3.0 ~window:3.0);
  check_float "singleton window boundary" 7.0
    (Tsdb.window_mean db "s" ~at:3.0 ~window:0.0);
  check_float "singleton window past" 0.0
    (Tsdb.window_mean db "s" ~at:3.5 ~window:0.0)

let qcheck_tsdb_window_mean_bounds =
  QCheck.Test.make ~name:"window mean within sample bounds (monotonic time)"
    ~count:200
    QCheck.(small_list (pair (float_bound_exclusive 100.0) (float_range (-5.0) 5.0)))
    (fun samples ->
      QCheck.assume (samples <> []);
      let db = Tsdb.create () in
      (* monotonic time from the accumulated (non-negative) deltas *)
      let t = ref 0.0 in
      List.iter
        (fun (dt, v) ->
          t := !t +. Float.abs dt;
          Tsdb.add db "s" ~at:!t v)
        samples;
      let values = List.map snd samples in
      let lo = List.fold_left Float.min infinity values in
      let hi = List.fold_left Float.max neg_infinity values in
      let m = Tsdb.window_mean db "s" ~at:!t ~window:!t in
      m >= lo -. 1e-9 && m <= hi +. 1e-9)

let test_tsdb_query_json () =
  let db = Tsdb.create () in
  for i = 0 to 9 do
    Tsdb.add db "s" ~at:(float_of_int i) (float_of_int i)
  done;
  Alcotest.(check int) "raw query from 2" 8
    (Array.length (Tsdb.query db "s" ~from:2.0 ~step:0.0));
  (* step buckets: means stamped at bucket ends, empty buckets skipped *)
  let bucketed = Tsdb.query db "s" ~from:0.0 ~step:4.0 in
  Alcotest.(check int) "3 buckets" 3 (Array.length bucketed);
  (match bucketed with
  | [| (t0, v0); (t1, v1); (t2, v2) |] ->
    check_float "bucket 0 end" 4.0 t0;
    check_float "bucket 0 mean" 1.5 v0;
    check_float "bucket 1 end" 8.0 t1;
    check_float "bucket 1 mean" 5.5 v1;
    check_float "bucket 2 end" 12.0 t2;
    check_float "bucket 2 mean" 8.5 v2
  | _ -> Alcotest.fail "unexpected bucket shape");
  Alcotest.(check string) "canonical json"
    "{\"from\":8,\"samples\":[[8,8],[9,9]],\"signal\":\"s\",\"step\":0}"
    (Tsdb.query_json db "s" ~from:8.0 ~step:0.0);
  Alcotest.(check string) "unknown series queries empty"
    "{\"from\":0,\"samples\":[],\"signal\":\"nope\",\"step\":0}"
    (Tsdb.query_json db "nope" ~from:0.0 ~step:0.0)

let qcheck_tsdb_times_monotone =
  QCheck.Test.make ~name:"tsdb clamp keeps times monotone" ~count:200
    QCheck.(small_list (pair (float_range (-50.0) 50.0) (float_range (-5.0) 5.0)))
    (fun samples ->
      QCheck.assume (samples <> []);
      let db = Tsdb.create ~capacity:16 () in
      (* adversarial stamps: raw, possibly decreasing *)
      List.iter (fun (at, v) -> Tsdb.add db "s" ~at v) samples;
      match Tsdb.series db "s" with
      | None -> false
      | Some ts ->
        let times = Mitos_util.Timeseries.times ts in
        let ok = ref true in
        for i = 1 to Array.length times - 1 do
          if times.(i - 1) > times.(i) then ok := false
        done;
        !ok)

let qcheck_tsdb_counter_rate_non_negative =
  QCheck.Test.make ~name:"counter rate never negative (resets included)"
    ~count:200
    QCheck.(small_list (pair (float_range 0.0 5.0) (float_range 0.0 100.0)))
    (fun samples ->
      QCheck.assume (List.length samples >= 2);
      let db = Tsdb.create () in
      let t = ref 0.0 in
      List.iter
        (fun (dt, v) ->
          t := !t +. dt;
          Tsdb.add db "c" ~at:!t v)
        samples;
      Tsdb.rate db "c" ~at:!t ~window:(!t +. 1.0) >= 0.0
      && Tsdb.increase db "c" ~at:!t ~window:(!t +. 1.0) >= 0.0)

let qcheck_tsdb_newest_survives =
  QCheck.Test.make ~name:"tsdb retention keeps the newest sample" ~count:200
    QCheck.(
      pair (int_range 1 8)
        (small_list (pair (float_range 0.0 10.0) (float_range (-5.0) 5.0))))
    (fun (capacity, samples) ->
      QCheck.assume (samples <> []);
      let db = Tsdb.create ~capacity ~max_age:7.0 () in
      let t = ref 0.0 in
      let final = ref 0.0 in
      List.iter
        (fun (dt, v) ->
          t := !t +. dt;
          Tsdb.add db "s" ~at:!t v;
          final := v)
        samples;
      Tsdb.latest db "s" = Some (!t, !final))

(* -- Alerts ----------------------------------------------------------- *)

(* A rule judging a latency-style signal against objective <= 100,
   with a single tight window pair so small streams can trip it. *)
let mk_alert_rule ?name ?(budget = 0.1) ?(windows = 4.0) ?(burn = 2.0)
    ?(sev = Alerts.Page) ?(for_ = 0.0) ?(keep_firing = 0.0) () =
  Alerts.rule ?name ~budget
    ~windows:
      [ { Alerts.fast = windows; slow = windows *. 2.0; burn;
          pair_severity = sev } ]
    ~for_ ~keep_firing ~signal:"lat" ~cmp:Alerts.Le ~objective:100.0 ()

let drive alerts samples =
  List.iter (fun (at, v) -> Alerts.observe alerts ~at [ ("lat", v) ]) samples

let test_alerts_parse_roundtrip () =
  let r =
    mk_alert_rule ~name:"lat_burn" ~budget:0.05 ~for_:3.0 ~keep_firing:7.0 ()
  in
  let s = Alerts.rule_to_string r in
  (match Alerts.parse_rule s with
  | Error e -> Alcotest.fail e
  | Ok r' ->
    Alcotest.(check string) "round-trips canonically" s
      (Alerts.rule_to_string r'));
  (match
     Alerts.parse_rule
       "p99:decision_p99_ns<=5e6;budget=0.05;windows=30/120@4@ticket;for=10"
   with
  | Error e -> Alcotest.fail e
  | Ok { Alerts.alert_name; burn_rate = Some b; _ } ->
    Alcotest.(check string) "named" "p99" alert_name;
    check_float "budget" 0.05 b.Alerts.budget;
    check_float "for" 10.0 b.Alerts.for_;
    (match b.Alerts.windows with
    | [ w ] ->
      check_float "fast" 30.0 w.Alerts.fast;
      Alcotest.(check bool) "ticket pair" true
        (w.Alerts.pair_severity = Alerts.Ticket)
    | _ -> Alcotest.fail "expected one pair")
  | Ok _ -> Alcotest.fail "expected a burn-rate rule");
  let bad s =
    match Alerts.parse_rule s with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (Printf.sprintf "accepted malformed %S" s)
  in
  bad "no_comparison";
  bad "sig<=1;bogus=3";
  bad "sig<=1;windows=5/2@1";
  (* slow < fast *)
  bad "sig<=1;windows=abc";
  bad "sig<=1;budget=-1";
  (* NaN in any number: an Error, never an exception *)
  bad "sig<=nan";
  bad "sig<=1;budget=nan";
  bad "sig<=1;keep=nan";
  bad "sig<=1;for=nan";
  bad "sig<=1;windows=5/nan@1";
  bad "sig<=1;windows=nan/5@1";
  bad "sig<=1;windows=5/10@nan";
  let rejects what f =
    Alcotest.(check bool) ("rule rejects NaN " ^ what) true
      (match f () with _ -> false | exception Invalid_argument _ -> true)
  in
  let mk ?(objective = 1.0) ?(for_ = 0.0) ?(keep_firing = 0.0)
      ?(slow = 10.0) () =
    Alerts.rule ~for_ ~keep_firing
      ~windows:
        [ { Alerts.fast = 5.0; slow; burn = 1.0; pair_severity = Alerts.Page } ]
      ~signal:"sig" ~cmp:Alerts.Le ~objective ()
  in
  rejects "objective" (mk ~objective:nan);
  rejects "for" (mk ~for_:nan);
  rejects "keep" (mk ~keep_firing:nan);
  rejects "window" (mk ~slow:nan)

let test_alerts_pending_fires_at_exactly_for () =
  let a =
    Alerts.create ~rules:[ mk_alert_rule ~name:"lat" ~for_:2.0 () ] ()
  in
  drive a [ (1.0, 50.0) ];
  Alcotest.(check (option string)) "healthy start" (Some "ok")
    (Option.map
       (function Alerts.Inactive -> "ok" | _ -> "bad")
       (Alerts.phase_of a "lat"));
  (* all-bad samples: burn = (1.0 bad fraction)/0.1 = 10 >= 2 *)
  drive a [ (2.0, 500.0) ];
  (match Alerts.phase_of a "lat" with
  | Some (Alerts.Pending p) -> check_float "pending since" 2.0 p.since
  | _ -> Alcotest.fail "expected pending");
  Alcotest.(check bool) "pending does not fire" false (Alerts.any_firing a);
  drive a [ (3.0, 500.0) ];
  Alcotest.(check bool) "one tick early still pending" false
    (Alerts.any_firing a);
  drive a [ (4.0, 500.0) ];
  (* at - since = 2.0 = for_: fires on exactly the boundary *)
  (match Alerts.phase_of a "lat" with
  | Some (Alerts.Firing f) ->
    check_float "firing since boundary" 4.0 f.since;
    Alcotest.(check bool) "page severity" true (f.severity = Alerts.Page)
  | _ -> Alcotest.fail "expected firing");
  Alcotest.(check int) "severity code page" 2 (Alerts.severity_code a);
  Alcotest.(check string) "render_firing line"
    "firing: lat severity=page\n" (Alerts.render_firing a);
  let transitions =
    List.map (fun i -> Alerts.transition_to_string i.Alerts.transition)
      (Alerts.incidents a)
  in
  Alcotest.(check (list string)) "incident trail"
    [ "pending"; "firing" ] transitions

let test_alerts_cancelled_pending () =
  let a =
    Alerts.create
      ~rules:[ mk_alert_rule ~name:"lat" ~windows:2.0 ~for_:5.0 () ]
      ()
  in
  drive a [ (1.0, 500.0); (2.0, 500.0) ];
  (match Alerts.phase_of a "lat" with
  | Some (Alerts.Pending _) -> ()
  | _ -> Alcotest.fail "expected pending");
  (* recovery before [for_] elapses cancels without ever firing *)
  drive a
    [ (3.0, 10.0); (4.0, 10.0); (5.0, 10.0); (6.0, 10.0); (7.0, 10.0) ];
  (match Alerts.phase_of a "lat" with
  | Some Alerts.Inactive -> ()
  | _ -> Alcotest.fail "expected inactive");
  let transitions =
    List.map (fun i -> Alerts.transition_to_string i.Alerts.transition)
      (Alerts.incidents a)
  in
  Alcotest.(check (list string)) "pending then cancelled"
    [ "pending"; "cancelled" ] transitions;
  Alcotest.(check bool) "never fired" true
    (string_contains (Alerts.to_json a) "\"fired_total\":0")

let test_alerts_keep_firing_suppresses_flaps () =
  let a =
    Alerts.create
      ~rules:[ mk_alert_rule ~name:"lat" ~windows:2.0 ~keep_firing:4.0 () ]
      ()
  in
  (* breach: fires immediately (for_ = 0) *)
  drive a [ (1.0, 500.0); (2.0, 500.0) ];
  Alcotest.(check bool) "firing" true (Alerts.any_firing a);
  (* brief recovery flaps within keep_firing: stays firing *)
  drive a [ (3.0, 10.0); (4.0, 10.0); (5.0, 10.0); (6.0, 500.0) ];
  Alcotest.(check bool) "flap suppressed" true (Alerts.any_firing a);
  let transitions () =
    List.map (fun i -> Alerts.transition_to_string i.Alerts.transition)
      (Alerts.incidents a)
  in
  Alcotest.(check (list string)) "no resolve during flap"
    [ "pending"; "firing" ] (transitions ());
  (* a quiet spell of keep_firing resolves *)
  drive a
    [ (7.0, 10.0); (8.0, 10.0); (9.0, 10.0); (10.0, 10.0); (11.0, 10.0);
      (12.0, 10.0) ];
  Alcotest.(check bool) "resolved after quiet spell" false
    (Alerts.any_firing a);
  Alcotest.(check (list string)) "resolve recorded"
    [ "pending"; "firing"; "resolved" ] (transitions ());
  (* a fresh breach re-fires *)
  drive a [ (13.0, 500.0); (14.0, 500.0) ];
  Alcotest.(check bool) "refires" true (Alerts.any_firing a);
  Alcotest.(check bool) "fired twice" true
    (string_contains (Alerts.to_json a) "\"fired_total\":2")

(* The acceptance scenario: one signal stream through two burn-rate
   rules (a fast page pair and a slow ticket pair), full lifecycle,
   byte-identical /alerts JSON and incident JSONL at any parallelism
   degree — evaluation is a pure function of the stream, so pooled
   work running alongside must not perturb a single byte. *)
let alerts_lifecycle_run jobs =
  Mitos_parallel.Pool.with_pool ~jobs (fun pool ->
      let fast =
        mk_alert_rule ~name:"lat_page" ~windows:2.0 ~burn:2.0
          ~sev:Alerts.Page ~for_:1.0 ~keep_firing:2.0 ()
      in
      let slow =
        mk_alert_rule ~name:"lat_ticket" ~windows:6.0 ~burn:1.0
          ~sev:Alerts.Ticket ~for_:3.0 ~keep_firing:0.0 ()
      in
      let a = Alerts.create ~capacity:64 ~rules:[ fast; slow ] () in
      let stream =
        List.init 40 (fun i ->
            let at = float_of_int (i + 1) in
            (* healthy, breach long enough to fire both, recover *)
            let v = if i >= 8 && i < 24 then 500.0 else 10.0 in
            (at, v))
      in
      List.iter
        (fun (at, v) ->
          (* unrelated pooled work interleaved with evaluation *)
          ignore
            (Mitos_parallel.Pool.map pool ~f:(fun x -> x * x) [ 1; 2; 3 ]);
          Alerts.observe a ~at [ ("lat", v) ])
        stream;
      (Alerts.to_json a, Alerts.incidents_to_jsonl a))

let test_alerts_lifecycle_deterministic_across_jobs () =
  let j1, l1 = alerts_lifecycle_run 1 in
  let j2, l2 = alerts_lifecycle_run 2 in
  let j4, l4 = alerts_lifecycle_run 4 in
  Alcotest.(check string) "/alerts bytes jobs 1=2" j1 j2;
  Alcotest.(check string) "/alerts bytes jobs 1=4" j1 j4;
  Alcotest.(check string) "incident jsonl jobs 1=2" l1 l2;
  Alcotest.(check string) "incident jsonl jobs 1=4" l1 l4;
  (* the run actually exercised the whole lifecycle *)
  Alcotest.(check bool) "page fired" true
    (string_contains l1 "\"alert\":\"lat_page\",")
    ;
  Alcotest.(check bool) "ticket fired" true
    (string_contains l1 "\"alert\":\"lat_ticket\",");
  List.iter
    (fun needle ->
      Alcotest.(check bool) needle true (string_contains l1 needle))
    [ "\"transition\":\"pending\""; "\"transition\":\"firing\"";
      "\"transition\":\"resolved\"" ];
  Alcotest.(check bool) "ends resolved" true
    (string_contains j1 "\"worst\":\"ok\"")

let alert_route a path pairs =
  match
    List.find_opt (fun r -> r.Server.path = path) (Alerts.routes a)
  with
  | Some r -> r.Server.payload pairs
  | None -> Alcotest.fail ("missing alert route " ^ path)

let test_alerts_tracer_and_routes () =
  let tracer = Tracer.create ~clock:(Obs_clock.logical ()) () in
  let a =
    Alerts.create ~rules:[ mk_alert_rule ~name:"lat" ~windows:2.0 () ] ()
  in
  Alerts.link_tracer a tracer;
  drive a [ (1.0, 500.0); (2.0, 500.0) ];
  let is_instant name = function
    | Tracer.Instant i -> i.name = name
    | _ -> false
  in
  Alcotest.(check bool) "firing instant traced" true
    (Array.exists (is_instant "alert_firing") (Tracer.events tracer));
  Alcotest.(check string) "/alerts is to_json" (Alerts.to_json a)
    (alert_route a "/alerts" []).Server.body;
  Alcotest.(check string) "/alertz is the incident ring"
    (Alerts.incidents_to_jsonl a)
    (alert_route a "/alertz" []).Server.body

let test_alerts_query_route () =
  let a = Alerts.create ~rules:[ mk_alert_rule ~name:"lat" () ] () in
  drive a [ (1.0, 10.0); (2.0, 20.0) ];
  let q pairs =
    let p = alert_route a "/query" pairs in
    (p.Server.status, p.Server.body)
  in
  let status, body = q [ ("signal", "lat") ] in
  Alcotest.(check int) "known signal 200" 200 status;
  Alcotest.(check string) "raw samples"
    "{\"from\":0,\"samples\":[[1,10],[2,20]],\"signal\":\"lat\",\"step\":0}"
    body;
  let status, body = q [] in
  Alcotest.(check int) "missing signal 400" 400 status;
  Alcotest.(check bool) "names known signals" true
    (string_contains body "\"lat\"");
  let status, _ = q [ ("signal", "nope") ] in
  Alcotest.(check int) "unknown signal 404" 404 status

(* -- Fleet alert attribution ----------------------------------------- *)

let test_fleet_alert_attribution () =
  (* node b's /healthz body carries a firing line (what a node running
     --burn-slo renders); the fleet must attribute it without any wire
     change *)
  let firing_body =
    "status: breach\nfiring: lat_burn severity=page\nrule lat<=100  value \
     500  BREACH\n"
  in
  let b_fetch () =
    Ok
      {
        Fleet.node = "b";
        healthy = false;
        health = firing_body;
        snapshot = (counting_snapshot 5) ();
      }
  in
  let fleet =
    Fleet.create
      ~slo:
        (Alerts.create
           ~rules:
             [
               Alerts.rule ~name:"fleet_pages"
                 ~budget:0.5
                 ~windows:
                   [ { Alerts.fast = 2.0; slow = 4.0; burn = 1.0;
                       pair_severity = Alerts.Page } ]
                 ~signal:"fleet_nodes_firing" ~cmp:Alerts.Le ~objective:0.0
                 ();
             ]
           ())
      [ fleet_member "a" (counting_snapshot 5); ("b", b_fetch) ]
  in
  Fleet.scrape fleet ~at:1.0;
  Fleet.scrape fleet ~at:2.0;
  (* parse_firing round-trips the body lines *)
  Alcotest.(check bool) "parse_firing" true
    (Fleet.parse_firing firing_body = [ ("lat_burn", Alerts.Page) ]);
  (match Fleet.nodes fleet with
  | [ va; vb ] ->
    Alcotest.(check bool) "a clean" true (va.Fleet.node_firing = []);
    Alcotest.(check bool) "b attributed" true
      (vb.Fleet.node_firing = [ ("lat_burn", Alerts.Page) ])
  | _ -> Alcotest.fail "expected two node views");
  Alcotest.(check bool) "status line attributes the alert" true
    (string_contains (Fleet.render_health fleet)
       "status: breach (node b alert lat_burn)");
  Alcotest.(check bool) "healthz carries per-node firing line" true
    (string_contains (Fleet.render_health fleet)
       "firing: lat_burn severity=page node=b");
  (* federated exposition labels the firing alert with its node *)
  let fed = Snapshot.to_prometheus (Fleet.federated fleet) in
  Alcotest.(check bool) "firing gauge node-labelled" true
    (string_contains fed
       "mitos_fleet_alert_firing{alert=\"lat_burn\",node=\"b\"} 2");
  (* the fleet-level burn-rate rule over fleet_nodes_firing fires too *)
  Alcotest.(check bool) "fleet-level alert fires" true
    (match Fleet.slo fleet with
    | Some a -> Alerts.any_firing a
    | None -> false);
  Alcotest.(check bool) "fleet verdict breached" false (Fleet.healthy fleet);
  Alcotest.(check bool) "fleet_json carries alerts" true
    (string_contains (Fleet.fleet_json fleet) "\"alerts\":{")

(* -- Fleet golden ------------------------------------------------------- *)

(* The `fleet` command's configuration: the default fleet rule, one
   --slo rule and one --burn-slo rule over the fleet signals, across
   three nodes where b goes unreachable (and stale) and comes back.
   Every scrape's /healthz body and /fleet.json go into the transcript,
   compared byte for byte against a checked-in golden file. *)
let test_fleet_golden () =
  let ok = function Ok r -> r | Error e -> Alcotest.fail e in
  let rules =
    Fleet.default_rules
    @ [
        ok (Alerts.parse_threshold "skew:fleet_node_skew<=1.4");
        ok
          (Alerts.parse_rule
             "down:fleet_unreachable<=0;budget=0.5;windows=2/4@1@page;keep=2");
      ]
  in
  let slo = Alerts.create ~rules () in
  let round = ref 0 in
  let member node per_round =
    fleet_member node (fun () -> counting_snapshot (per_round * !round) ())
  in
  let b_fetch () =
    if !round >= 4 && !round < 9 then Error "connection refused"
    else (snd (member "b" 20)) ()
  in
  let fleet =
    Fleet.create ~stale_after:3.0 ~slo
      [ member "a" 10; ("b", b_fetch); member "c" 10 ]
  in
  let buf = Buffer.create 65536 in
  for r = 1 to 12 do
    round := r;
    Fleet.scrape fleet ~at:(float_of_int r);
    Buffer.add_string buf
      (Printf.sprintf "== scrape %d\n%s%s\n" r (Fleet.render_health fleet)
         (Fleet.fleet_json fleet))
  done;
  let expected =
    In_channel.with_open_bin (Filename.concat "golden" "fleet_slo.txt")
      In_channel.input_all
  in
  Alcotest.(check string) "fleet_slo.txt" expected (Buffer.contents buf)

let () =
  Alcotest.run "mitos_obs"
    [
      ( "clock",
        [
          Alcotest.test_case "logical" `Quick test_logical_clock;
          Alcotest.test_case "of_fun" `Quick test_of_fun_clock;
          Alcotest.test_case "real monotone" `Quick test_real_clock_monotone;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "bucket boundaries" `Quick
            test_histogram_bucket_boundaries;
          Alcotest.test_case "observe counts" `Quick
            test_histogram_observe_counts;
          Alcotest.test_case "empty" `Quick test_histogram_empty;
          Alcotest.test_case "quantiles" `Quick test_histogram_quantiles;
          Alcotest.test_case "quantile clamps" `Quick
            test_histogram_quantile_clamps;
          Alcotest.test_case "quantile edges" `Quick
            test_histogram_quantile_edges;
          Alcotest.test_case "reset" `Quick test_histogram_reset;
          Alcotest.test_case "validation" `Quick test_histogram_validation;
          Alcotest.test_case "merge" `Quick test_histogram_merge;
          QCheck_alcotest.to_alcotest qcheck_hist_merge_commutative;
          QCheck_alcotest.to_alcotest qcheck_hist_merge_associative;
          QCheck_alcotest.to_alcotest qcheck_hist_merge_empty_identity;
          QCheck_alcotest.to_alcotest qcheck_hist_merge_quantile_envelope;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "codec round-trip" `Quick
            test_snapshot_codec_roundtrip;
          Alcotest.test_case "adversarial decode" `Quick
            test_snapshot_adversarial_decode;
          Alcotest.test_case "merge semantics" `Quick
            test_snapshot_merge_semantics;
          Alcotest.test_case "merge layout clash" `Quick
            test_snapshot_merge_layout_clash;
        ] );
      ( "fleet",
        [
          Alcotest.test_case "scrape + signals" `Quick
            test_fleet_scrape_and_signals;
          Alcotest.test_case "unreachable + staleness" `Quick
            test_fleet_unreachable_and_staleness;
          Alcotest.test_case "node breach flips healthz" `Quick
            test_fleet_node_breach_flips_healthz;
          Alcotest.test_case "fleet_json deterministic" `Quick
            test_fleet_json_deterministic;
          Alcotest.test_case "slo golden" `Quick test_fleet_golden;
        ] );
      ( "registry",
        [
          Alcotest.test_case "get-or-create" `Quick test_registry_get_or_create;
          Alcotest.test_case "kind mismatch" `Quick test_registry_kind_mismatch;
          Alcotest.test_case "prometheus rendering" `Quick
            test_prometheus_rendering;
          Alcotest.test_case "labels sorted" `Quick test_prometheus_labels_sorted;
          Alcotest.test_case "fmt_value" `Quick test_fmt_value;
          Alcotest.test_case "json_string" `Quick test_json_string;
          Alcotest.test_case "json" `Quick test_registry_json;
        ] );
      ( "tracer",
        [
          Alcotest.test_case "span nesting" `Quick test_span_nesting;
          Alcotest.test_case "unmatched end" `Quick test_unmatched_end;
          Alcotest.test_case "finish closes spans" `Quick
            test_finish_closes_open_spans;
          Alcotest.test_case "with_span on raise" `Quick test_with_span_on_raise;
          Alcotest.test_case "capacity well-nested" `Quick
            test_capacity_keeps_stream_well_nested;
          Alcotest.test_case "retained begin keeps end" `Quick
            test_capacity_keeps_end_of_retained_begin;
        ] );
      ( "chrome-trace",
        [
          Alcotest.test_case "byte-exact json" `Quick
            test_chrome_trace_rendering;
          Alcotest.test_case "escaping" `Quick test_chrome_trace_escaping;
          Alcotest.test_case "jsonl" `Quick test_chrome_trace_jsonl;
        ] );
      ( "audit",
        [
          Alcotest.test_case "null no-op" `Quick test_audit_null_noop;
          Alcotest.test_case "ring and sink" `Quick test_audit_ring_and_sink;
          Alcotest.test_case "byte-exact jsonl" `Quick test_audit_json;
          Alcotest.test_case "tracer cross-link" `Quick
            test_audit_tracer_crosslink;
        ] );
      ( "obs",
        [
          Alcotest.test_case "disabled no-op" `Quick test_disabled_is_noop;
          Alcotest.test_case "enabled records" `Quick test_enabled_records;
          Alcotest.test_case "determinism" `Quick test_obs_determinism;
        ] );
      ( "integration",
        [
          Alcotest.test_case "engine instrumentation" `Quick
            test_engine_instrumentation;
          Alcotest.test_case "double instrument rejected" `Quick
            test_engine_double_instrument_rejected;
        ] );
      ( "health",
        [
          Alcotest.test_case "parse_rule" `Quick test_health_parse_rule;
          Alcotest.test_case "parse_rule errors" `Quick
            test_health_parse_rule_errors;
          Alcotest.test_case "pending/breach edges" `Quick
            test_health_pending_then_breach;
          Alcotest.test_case "window judgment" `Quick test_health_window;
          Alcotest.test_case "windowed pending signals" `Quick
            test_health_window_pending_signals;
          Alcotest.test_case "tracer instant" `Quick
            test_health_tracer_instant;
          Alcotest.test_case "breach history bounded" `Quick
            test_health_breach_history_bounded;
        ] );
      ( "server",
        [
          Alcotest.test_case "serve/fetch/stop" `Quick
            test_server_serve_fetch_stop;
          Alcotest.test_case "non-GET rejected" `Quick
            test_server_rejects_non_get;
          Alcotest.test_case "idle socket does not stall" `Quick
            test_server_idle_socket_does_not_stall;
          Alcotest.test_case "netloop contains session exceptions" `Quick
            test_netloop_contains_session_exceptions;
          Alcotest.test_case "oneshot deterministic" `Quick
            test_server_oneshot_deterministic;
          Alcotest.test_case "oneshot propagates" `Quick
            test_server_oneshot_propagates;
          Alcotest.test_case "parse_url" `Quick test_parse_url;
          Alcotest.test_case "route_q query pairs" `Quick test_server_route_q;
          QCheck_alcotest.to_alcotest qcheck_escape_label_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_escape_label_no_raw_specials;
        ] );
      ( "propagation",
        [
          Alcotest.test_case "deterministic ids" `Quick
            test_propagation_deterministic;
          Alcotest.test_case "validity + child" `Quick
            test_propagation_validity_and_child;
        ] );
      ( "contended",
        [
          Alcotest.test_case "counts" `Quick test_contended_counts;
          Alcotest.test_case "contention counted" `Quick
            test_contended_contention_counted;
          Alcotest.test_case "aggregate + wait" `Quick
            test_contended_aggregate_and_wait;
        ] );
      ( "profile",
        [
          Alcotest.test_case "fold self times" `Quick
            test_profile_fold_self_times;
          Alcotest.test_case "sanitize + top" `Quick
            test_profile_sanitizes_and_tops;
          Alcotest.test_case "tracer complete" `Quick
            test_tracer_complete_retrospective;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "sample gauges" `Quick test_runtime_sample_gauges;
          Alcotest.test_case "gc word gauges move" `Quick test_runtime_gc_words_move;
        ] );
      ( "tsdb",
        [
          Alcotest.test_case "retention + clamp" `Quick
            test_tsdb_retention_and_clamp;
          Alcotest.test_case "rate/increase/quantile" `Quick
            test_tsdb_rate_increase_quantile;
          Alcotest.test_case "window mean" `Quick test_tsdb_window_mean;
          Alcotest.test_case "window mean slides" `Quick
            test_tsdb_window_mean_slides;
          Alcotest.test_case "window mean empty/singleton" `Quick
            test_tsdb_window_mean_empty_singleton;
          Alcotest.test_case "query + json" `Quick test_tsdb_query_json;
          QCheck_alcotest.to_alcotest qcheck_tsdb_times_monotone;
          QCheck_alcotest.to_alcotest qcheck_tsdb_counter_rate_non_negative;
          QCheck_alcotest.to_alcotest qcheck_tsdb_newest_survives;
          QCheck_alcotest.to_alcotest qcheck_tsdb_window_mean_bounds;
        ] );
      ( "alerts",
        [
          Alcotest.test_case "parse round-trip" `Quick
            test_alerts_parse_roundtrip;
          Alcotest.test_case "pending fires at exactly for" `Quick
            test_alerts_pending_fires_at_exactly_for;
          Alcotest.test_case "cancelled pending" `Quick
            test_alerts_cancelled_pending;
          Alcotest.test_case "keep_firing suppresses flaps" `Quick
            test_alerts_keep_firing_suppresses_flaps;
          Alcotest.test_case "lifecycle deterministic across jobs" `Quick
            test_alerts_lifecycle_deterministic_across_jobs;
          Alcotest.test_case "tracer + routes" `Quick
            test_alerts_tracer_and_routes;
          Alcotest.test_case "query route" `Quick test_alerts_query_route;
          Alcotest.test_case "fleet attribution" `Quick
            test_fleet_alert_attribution;
        ] );
    ]
