module Netio = Mitos_obs.Netio
module Registry = Mitos_obs.Registry
module Histogram = Mitos_obs.Histogram
module Obs = Mitos_obs.Obs
module Tracer = Mitos_obs.Tracer
module Propagation = Mitos_obs.Propagation
module Estimator = Mitos_distrib.Estimator
module Executor = Mitos_parallel.Executor

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
  (* Worker domains handle requests concurrently but the tracer is
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
     in. Read on whichever worker domain serves the request, so
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

let decide_one t (req : Wire.decide_request) =
  let count tag =
    match
      List.find_opt (fun (c, _) -> Mitos_tag.Tag.equal c tag) req.candidates
    with
    | Some (_, n) -> n
    | None -> 0
  in
  let env =
    { Mitos.Decision.count; pollution = req.pollution +. Estimator.global t.est }
  in
  let ranked =
    Mitos.Decision.alg2 t.params env ~space:req.space
      (List.map fst req.candidates)
  in
  List.map
    (fun (r : Mitos.Decision.ranked) ->
      { Wire.tag = r.tag; marginal = r.marginal; verdict = r.verdict })
    ranked

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
   under [trace_mu] because worker domains handle requests
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

let handle_body t body =
  let t0 = Unix.gettimeofday () in
  let obs_ts0 = if Obs.enabled t.obs then Obs.now t.obs else 0 in
  match Wire.decode_request body with
  | Error err ->
    Registry.incr t.errors_total;
    Wire.encode_response_body ~id:0 (Err (Wire.error_to_string err))
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

type sock_listener = {
  sock : Unix.file_descr;
  stopping : bool Atomic.t;
  mutable acceptor : unit Domain.t option;
  exec : Executor.t;
  unlink_path : string option;
}

type impl = Mem of string | Sock of sock_listener

type listener = {
  owner : t;
  bound : Transport.endpoint;
  impl : impl;
  mutable stopped : bool;
}

let endpoint l = l.bound

(* One connection: read frames, answer them, until the peer closes,
   times out, sends garbage the stream cannot recover from, or the
   listener stops. *)
let serve_conn t stopping fd peer =
  Netio.set_timeouts ~timeout:t.config.read_timeout fd;
  let conn = Transport.of_fd ~max_frame:t.config.max_frame ~peer fd in
  let rec loop () =
    if not (Atomic.get stopping) then
      match Transport.recv conn with
      | Ok body -> (
        match Transport.send conn (handle_body t body) with
        | Ok () -> loop ()
        | Error _ -> ())
      | Error (Truncated _) -> () (* peer closed *)
      | Error err ->
        (* framing is unrecoverable: answer once, then hang up *)
        Registry.incr t.errors_total;
        ignore
          (Transport.send conn
             (Wire.encode_response_body ~id:0
                (Err (Wire.error_to_string err))))
  in
  Fun.protect ~finally:(fun () -> Transport.close conn) loop

let accept_loop t sl =
  while not (Atomic.get sl.stopping) do
    match Unix.select [ sl.sock ] [] [] 0.2 with
    | [], _, _ -> ()
    | _ :: _, _, _ -> (
      match Unix.accept sl.sock with
      | client, addr ->
        Registry.incr t.connections_total;
        let peer =
          match addr with
          | Unix.ADDR_INET (a, p) ->
            Printf.sprintf "%s:%d" (Unix.string_of_inet_addr a) p
          | Unix.ADDR_UNIX p -> if p = "" then "unix-peer" else p
        in
        Executor.submit sl.exec (fun () -> serve_conn t sl.stopping client peer)
      | exception Unix.Unix_error _ -> () (* racing stop; loop re-checks *))
    | exception Unix.Unix_error (EINTR, _, _) -> ()
    | exception Unix.Unix_error (EBADF, _, _) -> Atomic.set sl.stopping true
  done

let start t ep =
  match ep with
  | Transport.Memory name ->
    Transport.Loopback.register name (handle_body t);
    { owner = t; bound = ep; impl = Mem name; stopped = false }
  | Tcp { host; port } ->
    let sock, bound_port = Netio.listen_tcp ~host ~port () in
    let sl =
      {
        sock;
        stopping = Atomic.make false;
        acceptor = None;
        exec = Executor.create ~name:"mitos-net" ~workers:t.config.workers ();
        unlink_path = None;
      }
    in
    sl.acceptor <- Some (Domain.spawn (fun () -> accept_loop t sl));
    {
      owner = t;
      bound = Tcp { host; port = bound_port };
      impl = Sock sl;
      stopped = false;
    }
  | Unix_sock path ->
    let sock = Netio.listen_unix path in
    let sl =
      {
        sock;
        stopping = Atomic.make false;
        acceptor = None;
        exec = Executor.create ~name:"mitos-net" ~workers:t.config.workers ();
        unlink_path = Some path;
      }
    in
    sl.acceptor <- Some (Domain.spawn (fun () -> accept_loop t sl));
    { owner = t; bound = ep; impl = Sock sl; stopped = false }

let stop l =
  if not l.stopped then begin
    l.stopped <- true;
    match l.impl with
    | Mem name -> Transport.Loopback.unregister name
    | Sock sl ->
      Atomic.set sl.stopping true;
      (match sl.acceptor with Some d -> Domain.join d | None -> ());
      Netio.close_quietly sl.sock;
      Executor.shutdown sl.exec;
      Option.iter (fun p -> try Unix.unlink p with Unix.Unix_error _ -> ())
        sl.unlink_path
  end
