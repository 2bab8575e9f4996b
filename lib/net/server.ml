module Netio = Mitos_obs.Netio
module Registry = Mitos_obs.Registry
module Histogram = Mitos_obs.Histogram
module Obs = Mitos_obs.Obs
module Tracer = Mitos_obs.Tracer
module Propagation = Mitos_obs.Propagation
module Estimator = Mitos_distrib.Estimator
module Netloop = Mitos_obs.Netloop

type config = {
  workers : int;
  nodes : int;
  estimator_shards : int;
  read_timeout : float;
  max_frame : int;
  node_id : string;
}

let default_config =
  {
    workers = 4;
    nodes = 16;
    estimator_shards = 1;
    read_timeout = Netio.default_timeout;
    max_frame = Wire.default_max_frame;
    node_id = "node0";
  }

(* per-operation metric handles, resolved once at create time *)
type op_metrics = { requests : Registry.counter; latency : Histogram.t }

type t = {
  config : config;
  params : Mitos.Params.t;
  reg : Registry.t;
  obs : Obs.t;
  (* Loop domains handle requests concurrently but the tracer is
     single-writer; completed server spans are recorded under this. *)
  trace_mu : Mutex.t;
  est : Estimator.t;
  per_op : (string * op_metrics) list;
  decisions_total : Registry.counter;
  errors_total : Registry.counter;
  connections_total : Registry.counter;
  served : int Atomic.t;
  decided : int Atomic.t;
  publishes : int Atomic.t;
  (* What Query_telemetry reports as the node's own SLO verdict;
     replaced by [set_health_probe] when an SLO engine is wired
     in. Read on whichever loop domain serves the request, so
     probes must be safe to call from any domain. *)
  mutable health_probe : unit -> bool * string;
}

let op_labels =
  [ "ping"; "decide"; "publish"; "global"; "node"; "stats"; "telemetry" ]

let create ?(config = default_config) ?registry ?(obs = Obs.disabled) ~params
    () =
  if config.workers < 0 then invalid_arg "Server.create: negative workers";
  if config.nodes < 1 then invalid_arg "Server.create: nodes must be >= 1";
  if config.estimator_shards < 1 then
    invalid_arg "Server.create: estimator_shards must be >= 1";
  let reg = match registry with Some r -> r | None -> Registry.create () in
  let per_op =
    List.map
      (fun op ->
        ( op,
          {
            requests =
              Registry.counter reg ~help:"decision-service requests handled"
                ~labels:[ ("op", op) ] "mitos_net_requests_total";
            latency =
              Registry.histogram reg
                ~help:"decision-service request handling latency"
                ~labels:[ ("op", op) ] ~lo:100.0 ~growth:2.0 ~buckets:32
                "mitos_net_request_ns";
          } ))
      op_labels
  in
  {
    config;
    params;
    reg;
    obs;
    trace_mu = Mutex.create ();
    est =
      Estimator.create ~shards:config.estimator_shards ~nodes:config.nodes ();
    per_op;
    decisions_total =
      Registry.counter reg ~help:"individual indirect-flow decisions served"
        "mitos_net_decisions_total";
    errors_total =
      Registry.counter reg ~help:"malformed frames and refused requests"
        "mitos_net_errors_total";
    connections_total =
      Registry.counter reg ~help:"connections accepted"
        "mitos_net_connections_total";
    served = Atomic.make 0;
    decided = Atomic.make 0;
    publishes = Atomic.make 0;
    health_probe = (fun () -> (true, "status: ok (no SLO rules attached)\n"));
  }

let registry t = t.reg
let estimator t = t.est
let set_health_probe t probe = t.health_probe <- probe
let config t = t.config
let obs t = t.obs

let rec atomic_add cell n =
  let seen = Atomic.get cell in
  if not (Atomic.compare_and_set cell seen (seen + n)) then atomic_add cell n

(* -- request semantics -------------------------------------------------- *)

(* A tag listed twice in a request counts as its first listing. The
   listings are sorted by tag, where a stable sort keeps a tag's first
   listing ahead of its later ones, and each of Alg. 2's lookups is a
   binary search: O(n log n) for a batch of n candidates, whatever
   tags a client chooses. *)
let rec leftmost sorted tag lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) lsr 1 in
    if Mitos_tag.Tag.compare (fst sorted.(mid)) tag < 0 then
      leftmost sorted tag (mid + 1) hi
    else leftmost sorted tag lo mid

let counts candidates =
  let sorted = Array.of_list candidates in
  Array.stable_sort (fun (a, _) (b, _) -> Mitos_tag.Tag.compare a b) sorted;
  fun tag ->
    let i = leftmost sorted tag 0 (Array.length sorted) in
    if i < Array.length sorted && Mitos_tag.Tag.equal (fst sorted.(i)) tag
    then snd sorted.(i)
    else 0

let decide_one t (req : Wire.decide_request) =
  let env =
    {
      Mitos.Decision.count = counts req.candidates;
      pollution = req.pollution +. Estimator.global t.est;
    }
  in
  Mitos.Decision.alg2 t.params env ~space:req.space
    (List.map fst req.candidates)

let handle_request t (req : Wire.request) : Wire.response =
  match req with
  | Ping -> Pong
  | Decide batch ->
    let outcomes = List.map (decide_one t) batch in
    let n = List.length batch in
    atomic_add t.decided n;
    Registry.add t.decisions_total n;
    Decisions outcomes
  | Publish { node; value } ->
    if node < 0 || node >= t.config.nodes then begin
      Registry.incr t.errors_total;
      Err (Printf.sprintf "publish: node %d out of range [0,%d)" node
             t.config.nodes)
    end
    else begin
      Estimator.publish t.est ~node value;
      atomic_add t.publishes 1;
      Published (Estimator.global t.est)
    end
  | Read_global -> Global (Estimator.global t.est)
  | Read_node node ->
    if node < 0 || node >= t.config.nodes then begin
      Registry.incr t.errors_total;
      Err (Printf.sprintf "node %d out of range [0,%d)" node t.config.nodes)
    end
    else Node_value (Estimator.contribution t.est ~node)
  | Query_stats ->
    Stats
      {
        served = Atomic.get t.served;
        decided = Atomic.get t.decided;
        publishes = Atomic.get t.publishes;
        nodes = t.config.nodes;
        global = Estimator.global t.est;
      }
  | Query_telemetry ->
    (* the snapshot is cut before this request's own per-op counter
       and latency are recorded (handle_body updates them after the
       response is built), so answering telemetry does not perturb
       the snapshot being answered — the property the federation
       byte-identity test leans on *)
    let healthy, health = t.health_probe () in
    Telemetry
      {
        node = t.config.node_id;
        healthy;
        health;
        snapshot = Registry.snapshot t.reg;
      }

(* Record a completed server span carrying the client's trace context,
   if the server has an enabled obs. Tracer writes are serialized
   under [trace_mu] because loop domains handle requests
   concurrently; the span is recorded with explicit timestamps after
   the work, so the critical section is just the buffer append. *)
let record_span t ~trace ~ts0 ~ts1 op =
  if Obs.enabled t.obs then begin
    let args =
      match trace with
      | Some ctx -> Propagation.to_args ctx
      | None -> []
    in
    Mutex.lock t.trace_mu;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.trace_mu)
      (fun () ->
        Tracer.complete (Obs.tracer t.obs) ~args ~ts0 ~ts1 ("server." ^ op))
  end

let err_body err =
  Wire.encode_response_body ~id:0 (Err (Wire.error_to_string err))

let handle_body t body =
  let t0 = Unix.gettimeofday () in
  let obs_ts0 = if Obs.enabled t.obs then Obs.now t.obs else 0 in
  match Wire.decode_request body with
  | Error err ->
    Registry.incr t.errors_total;
    err_body err
  | Ok (id, trace, req) ->
    atomic_add t.served 1;
    let resp =
      match handle_request t req with
      | resp -> resp
      | exception exn ->
        Registry.incr t.errors_total;
        Wire.Err ("internal error: " ^ Printexc.to_string exn)
    in
    let op = Wire.request_kind req in
    (match List.assoc_opt op t.per_op with
    | Some m ->
      Registry.incr m.requests;
      Histogram.observe m.latency ((Unix.gettimeofday () -. t0) *. 1e9)
    | None -> ());
    record_span t ~trace ~ts0:obs_ts0
      ~ts1:(if Obs.enabled t.obs then Obs.now t.obs else 0)
      op;
    Wire.encode_response_body ~id resp

(* -- listeners ----------------------------------------------------------- *)

(* The wire protocol as a readiness-loop session: every complete frame
   is answered inline. Framing the stream cannot recover from — an
   oversize announcement, a garbage length — and a timeout each get
   one Err frame, then a hang-up; EOF just closes. *)
let session t (stream : Netloop.stream) bytes pos : Netloop.action =
  match (Wire.unframe ~max_frame:t.config.max_frame bytes ~pos, stream) with
  | Ok (body, next), _ -> Reply (Wire.frame (handle_body t body), next)
  | Error (Truncated _), Open -> Need_more
  | Error (Truncated _), Eof -> Reply_close ""
  | Error (Truncated _), Timed_out ->
    Registry.incr t.errors_total;
    Reply_close
      (Wire.frame (err_body (Corrupt { offset = 0; msg = "read timeout" })))
  | Error err, _ ->
    Registry.incr t.errors_total;
    Reply_close (Wire.frame (err_body err))

type listener = { bound : Transport.endpoint; stop : unit -> unit }

let endpoint l = l.bound
let stop l = l.stop ()

let once f =
  let ran = Atomic.make false in
  fun () -> if not (Atomic.exchange ran true) then f ()

let serve t sock =
  let session = session t in
  let accept () =
    Registry.incr t.connections_total;
    session
  in
  Netloop.start ~domains:(max 1 t.config.workers)
    ~timeout:t.config.read_timeout ~accept sock

let start t ep =
  match ep with
  | Transport.Memory name ->
    Transport.Loopback.register name (handle_body t);
    { bound = ep; stop = once (fun () -> Transport.Loopback.unregister name) }
  | Tcp { host; port } ->
    let sock, bound_port = Netio.listen_tcp ~host ~port () in
    { bound = Tcp { host; port = bound_port }; stop = serve t sock }
  | Unix_sock path ->
    let stop = serve t (Netio.listen_unix path) in
    let stop_and_unlink () =
      stop ();
      try Unix.unlink path with Unix.Unix_error _ -> ()
    in
    { bound = ep; stop = once stop_and_unlink }
