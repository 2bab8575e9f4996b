module Netio = Mitos_obs.Netio
module Registry = Mitos_obs.Registry
module Histogram = Mitos_obs.Histogram
module Obs = Mitos_obs.Obs
module Tracer = Mitos_obs.Tracer
module Propagation = Mitos_obs.Propagation
module Estimator = Mitos_distrib.Estimator
module Netloop = Mitos_obs.Netloop
module Clock = Mitos_util.Clock

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
  session_errors_total : Registry.counter;
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
    session_errors_total =
      Registry.counter reg
        ~help:"connections closed because their session raised"
        "mitos_net_session_errors_total";
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

(* -- the decide path ----------------------------------------------------- *)

module Tag = Mitos_tag.Tag
module Decision = Mitos.Decision

(* A Decide payload read in place, one per loop domain: each batched
   request's space, local pollution and first listing, each listing's
   tag and count, and one Alg. 2 scratch. The arrays grow as elements
   are read, never to a count the frame announces, so a hostile count
   allocates nothing before its payload runs out. *)
type batch = {
  mutable spaces : int array;
  mutable pollutions : float array;
  mutable starts : int array;
  mutable requests : int;
  mutable tags : Tag.t array;
  mutable counts : int array;
  mutable order : int array;
  mutable listings : int;
  scratch : Decision.scratch;
}

let batch () =
  {
    spaces = [||];
    pollutions = [||];
    starts = [||];
    requests = 0;
    tags = [||];
    counts = [||];
    order = [||];
    listings = 0;
    scratch = Decision.scratch ();
  }

let batch_key = Domain.DLS.new_key batch

(* A batch that one large frame grew past this many listings is
   dropped after the frame rather than held by the domain. *)
let kept_listings = 4096

(* [a]'s first [len] elements, in an array with twice the room *)
let grown a len fill =
  let a' = Array.make (max 8 (2 * len)) fill in
  Array.blit a 0 a' 0 len;
  a'

let on_request b ~space ~pollution =
  let r = b.requests in
  if r = Array.length b.spaces then begin
    b.spaces <- grown b.spaces r 0;
    b.pollutions <- grown b.pollutions r 0.0;
    b.starts <- grown b.starts r 0
  end;
  b.spaces.(r) <- space;
  b.pollutions.(r) <- pollution;
  b.starts.(r) <- b.listings;
  b.requests <- r + 1

let on_listing b tag count =
  let i = b.listings in
  if i = Array.length b.tags then begin
    b.tags <- grown b.tags i tag;
    b.counts <- grown b.counts i 0;
    b.order <- grown b.order i 0
  end;
  b.tags.(i) <- tag;
  b.counts.(i) <- count;
  b.listings <- i + 1

(* A tag listed twice in a request counts as its first listing. The
   request's listings are ordered by (id, type, index) with an in-place
   heapsort, so a tag's listings are adjacent with its first one
   leading, and each later listing takes the leader's count: O(n log n)
   for a request of n listings, whatever ids a client chooses. Any
   order that keeps equal tags together would do; comparing ids first
   settles most pairs with one integer compare. *)
let before tags i j =
  let a = Array.unsafe_get tags i and b = Array.unsafe_get tags j in
  if a.Tag.id <> b.Tag.id then a.Tag.id < b.Tag.id
  else if a.ty != b.ty then
    Mitos_tag.Tag_type.to_int a.ty < Mitos_tag.Tag_type.to_int b.ty
  else i < j

let rec sift_down tags order root n =
  let child = (2 * root) + 1 in
  if child < n then begin
    let child =
      if child + 1 < n && before tags order.(child) order.(child + 1) then
        child + 1
      else child
    in
    let r = order.(root) in
    if before tags r order.(child) then begin
      order.(root) <- order.(child);
      order.(child) <- r;
      sift_down tags order child n
    end
  end

let first_listing_counts b lo hi =
  let tags = b.tags and order = b.order and counts = b.counts in
  let n = hi - lo in
  for k = 0 to n - 1 do
    order.(k) <- lo + k
  done;
  for root = (n / 2) - 1 downto 0 do
    sift_down tags order root n
  done;
  for last = n - 1 downto 1 do
    let top = order.(0) in
    order.(0) <- order.(last);
    order.(last) <- top;
    sift_down tags order 0 last
  done;
  for k = 1 to n - 1 do
    let i = order.(k) and lead = order.(k - 1) in
    if Tag.equal tags.(i) tags.(lead) then counts.(i) <- counts.(lead)
  done

(* Alg. 2 for the [r]-th request of the batch, in the batch's scratch.
   The effective pollution is the request's local value plus the
   estimator's global, read per request. *)
let decide_request (t, b) r =
  let lo = b.starts.(r) in
  let hi = if r + 1 < b.requests then b.starts.(r + 1) else b.listings in
  first_listing_counts b lo hi;
  let s = b.scratch in
  Decision.reset s;
  for i = lo to hi - 1 do
    Decision.add s t.params b.tags.(i) ~count:b.counts.(i)
  done;
  Decision.decide Decision.no_ctx t.params ~recompute:true
    ~pollution:(b.pollutions.(r) +. Estimator.global t.est)
    ~space:b.spaces.(r) s;
  s

let decide_batch t b ~id =
  let reply =
    Wire.encode_decisions_body ~id ~requests:b.requests decide_request (t, b)
  in
  atomic_add t.decided b.requests;
  Registry.add t.decisions_total b.requests;
  reply

(* -- request semantics -------------------------------------------------- *)

let handle_request t (req : Wire.request) : Wire.response =
  match req with
  | Ping -> Pong
  | Decide _ ->
    (* [Wire.decode_request_into] reads a Decide payload into the
       domain's batch and never returns one *)
    assert false
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

let internal_error t exn =
  Registry.incr t.errors_total;
  Wire.Err ("internal error: " ^ Printexc.to_string exn)

let handle_body t body =
  let t0 = Clock.now_ns () in
  let obs_ts0 = if Obs.enabled t.obs then Obs.now t.obs else 0 in
  let b = Domain.DLS.get batch_key in
  b.requests <- 0;
  b.listings <- 0;
  let decoded =
    Wire.decode_request_into ~request:on_request ~candidate:on_listing b body
  in
  if Array.length b.tags > kept_listings then
    Domain.DLS.set batch_key (batch ());
  match decoded with
  | Error err ->
    Registry.incr t.errors_total;
    err_body err
  | Ok (id, trace, req) ->
    atomic_add t.served 1;
    let op, reply =
      match req with
      | None ->
        ( "decide",
          match decide_batch t b ~id with
          | reply -> reply
          | exception exn ->
            Wire.encode_response_body ~id (internal_error t exn) )
      | Some req ->
        ( Wire.request_kind req,
          Wire.encode_response_body ~id
            (match handle_request t req with
            | resp -> resp
            | exception exn -> internal_error t exn) )
    in
    (match List.assoc_opt op t.per_op with
    | Some m ->
      Registry.incr m.requests;
      Histogram.observe m.latency (float_of_int (Clock.now_ns () - t0))
    | None -> ());
    record_span t ~trace ~ts0:obs_ts0
      ~ts1:(if Obs.enabled t.obs then Obs.now t.obs else 0)
      op;
    reply

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
    ~timeout:t.config.read_timeout ~accept
    ~on_error:(fun _ -> Registry.incr t.session_errors_total)
    sock

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
