(* In-memory span recorder for the traced benchmark run.

   Spans are opened and closed by the benchmark around its calls into
   each layer's public functions; nothing inside the library is
   instrumented. A recorder belongs to one domain. Aggregates (count,
   total and self nanoseconds per span kind) are kept for every span;
   individual events are kept up to a fixed capacity and written out
   at exit as Chrome trace JSON. Self time is the span's duration minus
   the time its direct children cover. Recording allocates nothing, so
   the allocation counts the benchmark reports are not disturbed. *)

type kind =
  | Round
  | Trace_decode
  | Engine_setup
  | Engine_replay
  | Policy_select
  | Client_decide
  | Server_handle
  | Check
  | Wire_encode_request
  | Wire_decode_request
  | Estimator_global
  | Decision_alg2
  | Wire_encode_response
  | Wire_decode_response

let all =
  [ Round; Trace_decode; Engine_setup; Engine_replay; Policy_select;
    Client_decide; Server_handle; Check; Wire_encode_request;
    Wire_decode_request; Estimator_global; Decision_alg2;
    Wire_encode_response; Wire_decode_response ]

let index = function
  | Round -> 0
  | Trace_decode -> 1
  | Engine_setup -> 2
  | Engine_replay -> 3
  | Policy_select -> 4
  | Client_decide -> 5
  | Server_handle -> 6
  | Check -> 7
  | Wire_encode_request -> 8
  | Wire_decode_request -> 9
  | Estimator_global -> 10
  | Decision_alg2 -> 11
  | Wire_encode_response -> 12
  | Wire_decode_response -> 13

let name = function
  | Round -> "replay.round"
  | Trace_decode -> "trace.decode"
  | Engine_setup -> "engine.setup"
  | Engine_replay -> "engine.replay"
  | Policy_select -> "policy.select"
  | Client_decide -> "client.decide"
  | Server_handle -> "server.handle"
  | Check -> "check"
  | Wire_encode_request -> "wire.encode_request"
  | Wire_decode_request -> "wire.decode_request"
  | Estimator_global -> "estimator.global"
  | Decision_alg2 -> "decision.alg2"
  | Wire_encode_response -> "wire.encode_response"
  | Wire_decode_response -> "wire.decode_response"

let kinds = List.length all
let max_depth = 16
let capacity = 100_000

(* Bechamel's monotonic clock, in nanoseconds. *)
let now () = Int64.to_int (Monotonic_clock.now ())

type t = {
  tid : int;
  origin : int;
  mutable on : bool;
  count : int array;
  total : int array;
  self : int array;
  stack_kind : int array;
  stack_t0 : int array;
  stack_child : int array;
  mutable depth : int;
  ev_kind : int array;
  ev_t0 : int array;
  ev_dur : int array;
  mutable events : int;
}

let create ~tid =
  {
    tid;
    origin = now ();
    on = false;
    count = Array.make kinds 0;
    total = Array.make kinds 0;
    self = Array.make kinds 0;
    stack_kind = Array.make max_depth 0;
    stack_t0 = Array.make max_depth 0;
    stack_child = Array.make max_depth 0;
    depth = 0;
    ev_kind = Array.make capacity 0;
    ev_t0 = Array.make capacity 0;
    ev_dur = Array.make capacity 0;
    events = 0;
  }

(* [enter]/[leave] do nothing while the recorder is off, so untraced
   rounds pay one branch per call site. Toggle [on] only between
   top-level spans. *)
let enter t kind =
  if t.on then begin
    let d = t.depth in
    t.stack_kind.(d) <- index kind;
    t.stack_child.(d) <- 0;
    t.depth <- d + 1;
    t.stack_t0.(d) <- now ()
  end

let leave t =
  if t.on then begin
    let t1 = now () in
    let d = t.depth - 1 in
    t.depth <- d;
    let k = t.stack_kind.(d) and t0 = t.stack_t0.(d) in
    let dur = t1 - t0 in
    t.count.(k) <- t.count.(k) + 1;
    t.total.(k) <- t.total.(k) + dur;
    t.self.(k) <- t.self.(k) + dur - t.stack_child.(d);
    if d > 0 then t.stack_child.(d - 1) <- t.stack_child.(d - 1) + dur;
    (* a tenth of the buffer is kept for spans nested less than two
       deep, so the enclosing spans of a busy inner one still land *)
    let e = t.events in
    if e < (if d >= 2 then capacity - (capacity / 10) else capacity) then begin
      t.ev_kind.(e) <- k;
      t.ev_t0.(e) <- t0;
      t.ev_dur.(e) <- dur;
      t.events <- e + 1
    end
  end

let sum f recorders kind =
  List.fold_left (fun acc r -> acc + (f r).(index kind)) 0 recorders

(* Totals over every recorder (one per domain), in nanoseconds. *)
let total recorders kind = float_of_int (sum (fun r -> r.total) recorders kind)
let self recorders kind = float_of_int (sum (fun r -> r.self) recorders kind)
let calls recorders kind = float_of_int (sum (fun r -> r.count) recorders kind)

let names = Array.of_list (List.map name all)

(* Complete ("X") events, microsecond timestamps relative to the
   earliest recorder; loadable in chrome://tracing and Perfetto, which
   derive each slice's self time from the nesting. *)
let write_chrome path recorders =
  let origin =
    List.fold_left (fun acc r -> min acc r.origin) max_int recorders
  in
  let b = Buffer.create (1 lsl 20) in
  Buffer.add_string b "{\"traceEvents\":[";
  let first = ref true in
  List.iter
    (fun r ->
      for e = 0 to r.events - 1 do
        if not !first then Buffer.add_char b ',';
        first := false;
        Printf.bprintf b
          "\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f}"
          names.(r.ev_kind.(e)) r.tid
          (float_of_int (r.ev_t0.(e) - origin) /. 1e3)
          (float_of_int r.ev_dur.(e) /. 1e3)
      done)
    recorders;
  Buffer.add_string b "\n],\"displayTimeUnit\":\"ns\"}\n";
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> Buffer.output_buffer oc b)
