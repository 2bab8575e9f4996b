(* decide_mem, decide_tcp and decide_tcp_open: the decision service.

   The request mix is Loadgen's: frames of 10 decide requests over
   random candidate sets, plus pollution publishes. Frames are drawn
   from a pool generated from the seed before set-up, which is
   starting the server and connecting. Set-up is timed again between
   rounds.

   Closed loop (decide_mem, decide_tcp): one client sends its next
   frame when the previous reply is in, in rounds. Each reply is
   recomputed off the clock with [Mitos.Decision.alg2] under the global
   pollution the client's own publishes set, and compared bit for bit.

   Open loop (decide_tcp_open): two connections on two domains send on
   a fixed schedule whatever the replies do, and every fourth frame
   publishes to the connection's own node range. Latency runs from the
   frame's due time. Each round is a fresh stretch of the schedule. The
   connections race on the estimator, so replies are checked for
   invariants only.

   Over tcp the server runs in a child process (this executable's
   [serve] command) so client GC pauses do not stall it. *)

open Mitos_tag
module Wire = Mitos_net.Wire
module Client = Mitos_net.Client
module Server = Mitos_net.Server
module Transport = Mitos_net.Transport
module Estimator = Mitos_distrib.Estimator
module Snapshot = Mitos_obs.Registry.Snapshot
module Rng = Mitos_util.Rng

type transport = Mem | Tcp
type loop = Closed | Open

let params = Mitos_experiments.Calib.sensitivity_params ()
let batch = 10
let publish_every = 100
let closed_check_batch = 64
let workers = 2
let open_rate = 500.0
let open_conns = 2
let nodes_per_conn = Server.default_config.Server.nodes / open_conns

(* An open-loop frame sent this late means the backlog is growing and
   the schedule is lost; it counts as failed. *)
let max_lag_ns = 1_000_000_000

(* The open-loop generator sleeps until this long before a frame is
   due and spins the rest, so timer slack does not make it late. *)
let spin_ns = 300_000

let gen_decide rng : Wire.decide_request =
  let n = 1 + Rng.int rng 6 in
  let candidates =
    List.init n (fun _ ->
        (Tag.make (Rng.pick_list rng Tag_type.all) (Rng.int rng 10_000), Rng.int rng 64))
  in
  { space = Rng.int rng 5; pollution = Rng.float rng 1000.0; candidates }

let gen_pool ~seed n =
  let rng = Rng.create seed in
  Array.init n (fun _ -> List.init batch (fun _ -> gen_decide rng))

(* -- checking replies ------------------------------------------------------ *)

(* The server's decide path, recomputed with the direct Alg. 2. *)
let expected ~global (req : Wire.decide_request) =
  let count tag =
    match List.find_opt (fun (c, _) -> Tag.equal c tag) req.candidates with
    | Some (_, n) -> n
    | None -> 0
  in
  Mitos.Decision.alg2 params
    { Mitos.Decision.count; pollution = req.pollution +. global }
    ~space:req.space (List.map fst req.candidates)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let matches (replies : Wire.decided list) (want : Mitos.Decision.ranked list) =
  List.length replies = List.length want
  && List.for_all2
       (fun (d : Wire.decided) (r : Mitos.Decision.ranked) ->
         Tag.equal d.tag r.tag
         && same_bits d.marginal r.marginal
         && d.verdict = r.verdict)
       replies want

(* One entry per candidate, tags a permutation of the candidates, at
   most [space] of them propagated. *)
let plausible (req : Wire.decide_request) (replies : Wire.decided list) =
  let sorted tags = List.sort Tag.compare tags in
  List.equal Tag.equal
    (sorted (List.map (fun (d : Wire.decided) -> d.tag) replies))
    (sorted (List.map fst req.candidates))
  && List.length
       (List.filter
          (fun (d : Wire.decided) -> d.verdict = Mitos.Decision.Propagate)
          replies)
     <= req.space

(* The fault the self-test injects: one verdict flipped. *)
let flip_first_verdict = function
  | ((d : Wire.decided) :: rest) :: more ->
    let verdict =
      match d.verdict with
      | Mitos.Decision.Propagate -> Mitos.Decision.Block
      | Mitos.Decision.Block -> Mitos.Decision.Propagate
    in
    ({ d with verdict } :: rest) :: more
  | replies -> replies

(* Off the clock: check one reply and, in traced rounds, time the
   layer calls the round trip made, on the same inputs. *)
let check sp replica ~id ~global ~exact reqs replies =
  Span.enter sp Span.Check;
  if sp.Span.on then begin
    Span.enter sp Span.Wire_encode_request;
    let body = Wire.encode_request_body ~id (Wire.Decide reqs) in
    Span.leave sp;
    Span.enter sp Span.Wire_decode_request;
    ignore (Wire.decode_request body);
    Span.leave sp;
    Span.enter sp Span.Estimator_global;
    List.iter (fun _ -> ignore (Estimator.global replica)) reqs;
    Span.leave sp
  end;
  Span.enter sp Span.Decision_alg2;
  let want = if exact || sp.Span.on then List.map (expected ~global) reqs else [] in
  Span.leave sp;
  if sp.Span.on then begin
    Span.enter sp Span.Wire_encode_response;
    let body = Wire.encode_response_body ~id (Wire.Decisions replies) in
    Span.leave sp;
    Span.enter sp Span.Wire_decode_response;
    ignore (Wire.decode_response body);
    Span.leave sp
  end;
  Span.leave sp;
  List.length replies = List.length reqs
  && if exact then List.for_all2 matches replies want
     else List.for_all2 plausible reqs replies

(* Replies waiting for their check. Checking in batches keeps frames
   going out back to back and lets the layer timings run warm, as the
   server's own calls do under load. *)
type pending = {
  mutable items : (int * float * Wire.decide_request list * Wire.decided list list) list;
  mutable count : int;
  mutable fault : bool;
}

let pending ~fault = { items = []; count = 0; fault }

let push p ~id ~global reqs replies =
  p.items <- (id, global, reqs, replies) :: p.items;
  p.count <- p.count + 1

(* Check every pending reply; returns how many failed. *)
let check_pending p sp replica ~exact =
  let failures =
    List.fold_left
      (fun acc (id, global, reqs, replies) ->
        let replies =
          if p.fault then begin
            p.fault <- false;
            flip_first_verdict replies
          end
          else replies
        in
        if check sp replica ~id ~global ~exact reqs replies then acc else acc + 1)
      0 (List.rev p.items)
  in
  p.items <- [];
  p.count <- 0;
  failures

(* -- servers ----------------------------------------------------------------- *)

type server =
  | Local of { name : string }
  | Child of { pid : int; commands : out_channel; replies : in_channel; port : int }

let endpoint = function
  | Local { name } -> Transport.Memory name
  | Child { port; _ } -> Transport.Tcp { host = "127.0.0.1"; port }

let local_names = ref 0

(* [Server.start] on a Memory endpoint registers [Server.handle_body]
   as the loopback handler; registering it here instead puts a span
   around the server's share of each decide round trip. *)
let start_local sp in_decide =
  let srv = Server.create ~params () in
  incr local_names;
  let name = Printf.sprintf "perf-%d-%d" (Unix.getpid ()) !local_names in
  Transport.Loopback.register name (fun body ->
      if !in_decide then begin
        Span.enter sp Span.Server_handle;
        let reply = Server.handle_body srv body in
        Span.leave sp;
        reply
      end
      else Server.handle_body srv body);
  Local { name }

let spawn_child () =
  let exe = Sys.executable_name in
  let cmd_r, cmd_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe [| exe; "serve" |] cmd_r out_w Unix.stderr
  in
  Unix.close cmd_r;
  Unix.close out_w;
  let commands = Unix.out_channel_of_descr cmd_w
  and replies = Unix.in_channel_of_descr out_r in
  match Scanf.sscanf (input_line replies) "port %d" Fun.id with
  | port -> Child { pid; commands; replies; port }
  | exception (End_of_file | Scanf.Scan_failure _ | Failure _) ->
    close_out_noerr commands;
    ignore (Unix.waitpid [] pid);
    failwith "decision server child did not start"

let stop = function
  | Local { name } -> Transport.Loopback.unregister name
  | Child { pid; commands; replies; _ } ->
    close_out_noerr commands;
    ignore (Unix.waitpid [] pid);
    close_in_noerr replies

let lock_totals () =
  List.fold_left
    (fun (acq, wait) (_, (s : Mitos_obs.Contended.stats)) ->
      (acq + s.acquisitions, wait + s.wait_ns_total))
    (0, 0)
    (Mitos_obs.Contended.aggregate ())

(* Lock acquisitions and wait nanoseconds so far, in the server's
   process. *)
let locks = function
  | Local _ -> lock_totals ()
  | Child { commands; replies; _ } ->
    output_string commands "locks\n";
    flush commands;
    Scanf.sscanf (input_line replies) "locks %d %d" (fun a w -> (a, w))

(* The [serve] command: a tcp decision server on an ephemeral port that
   prints the port, answers "locks" on stdin, and stops at EOF. *)
let serve () =
  let srv =
    Server.create ~config:{ Server.default_config with Server.workers } ~params ()
  in
  let listener = Server.start srv (Transport.Tcp { host = "127.0.0.1"; port = 0 }) in
  (match Server.endpoint listener with
  | Transport.Tcp { port; _ } -> Printf.printf "port %d\n%!" port
  | _ -> ());
  let rec loop () =
    match input_line stdin with
    | "locks" ->
      let acq, wait = lock_totals () in
      Printf.printf "locks %d %d\n%!" acq wait;
      loop ()
    | _ -> loop ()
    | exception End_of_file -> ()
  in
  loop ();
  Server.stop listener

(* Sum and count of the node's own decide handling histogram
   ([mitos_net_request_ns{op="decide"}]), read over the wire. *)
let decide_handling client =
  match Client.telemetry client with
  | Error _ -> (0.0, 0)
  | Ok tele ->
    List.fold_left
      (fun acc (row : Snapshot.row) ->
        match row.value with
        | Snapshot.Hist h
          when row.name = "mitos_net_request_ns"
               && List.assoc_opt "op" row.labels = Some "decide" ->
          (h.sum, Array.fold_left ( + ) 0 h.counts)
        | _ -> acc)
      (0.0, 0) tele.Wire.snapshot

(* -- samples --------------------------------------------------------------- *)

type samples = { buf : int array; mutable n : int }

let samples cap = { buf = Array.make cap 0; n = 0 }
let add s v = if s.n < Array.length s.buf then begin s.buf.(s.n) <- v; s.n <- s.n + 1 end

(* What both loops hand to [layers]. *)
type totals = {
  attempted : int;
  failed : int;
  frames : int;  (** completed frames, decides and publishes *)
  decides : int;
  rtt_ns : int;  (** send-to-reply time summed over completed decides *)
  words : float;  (** minor words allocated during those round trips *)
  pub : samples;
  lag_ns : int;
}

let layers rs ~transport ~totals:t ~handling:(sum, count) ~locks:(acq, wait) ~retries
    ~p99 ~overhead =
  let per_check kind = Outcome.ratio (Span.total rs kind) (Span.calls rs Span.Check) in
  let enc_req = per_check Span.Wire_encode_request
  and dec_req = per_check Span.Wire_decode_request
  and enc_resp = per_check Span.Wire_encode_response
  and dec_resp = per_check Span.Wire_decode_response
  and alg2 = per_check Span.Decision_alg2
  and global = per_check Span.Estimator_global in
  let node_handle = Outcome.ratio sum (float_of_int count) in
  (* the node's histogram stops before the reply is encoded *)
  let node_full = node_handle +. enc_resp in
  let handle =
    match transport with
    | Mem ->
      Outcome.ratio (Span.total rs Span.Server_handle)
        (Span.calls rs Span.Server_handle)
    | Tcp -> node_full
  in
  let traced_rtt =
    Outcome.ratio (Span.total rs Span.Client_decide) (Span.calls rs Span.Client_decide)
  in
  let rtt = Outcome.ratio (float_of_int t.rtt_ns) (float_of_int t.decides) in
  let frames = float_of_int t.frames in
  [ ("wire.encode_request_ns", enc_req); ("wire.decode_request_ns", dec_req);
    ("wire.encode_response_ns", enc_resp); ("wire.decode_response_ns", dec_resp);
    ("decision.alg2_ns_per_frame", alg2); ("estimator.global_ns", global);
    ("server.handle_ns", handle);
    ("server.self_ns", handle -. dec_req -. alg2 -. global -. enc_resp);
    ("client.self_ns", traced_rtt -. handle -. enc_req -. dec_resp);
    ("gc.minor_words_per_frame", Outcome.ratio t.words (float_of_int t.decides));
    ("stage_coverage", Outcome.ratio (enc_req +. dec_resp +. handle) traced_rtt);
    ("server.handle_mean_us", node_handle /. 1e3);
    ("net.residual_us", (rtt -. node_full -. enc_req -. dec_resp) /. 1e3);
    ("lock.wait_ns_per_frame", Outcome.ratio (float_of_int wait) frames);
    ("lock.acquisitions_per_frame", Outcome.ratio (float_of_int acq) frames);
    ("client.retries", float_of_int retries);
    ("estimator.publish_rtt_p50_us", Outcome.quantile t.pub.buf t.pub.n 0.5 /. 1e3);
    ("loadgen.lag_ms_max", float_of_int t.lag_ns /. 1e6);
    ("loadgen.rtt_p99_us", p99 /. 1e3); ("tracing.overhead_pct", overhead) ]

type round = { traced : bool; fps : float; p50 : float; p99 : float }

let med f rounds = Outcome.median (List.map f rounds)

let overhead rounds f =
  match List.partition (fun r -> r.traced) rounds with
  | [], _ | _, [] -> 0.0
  | traced, untraced -> 100.0 *. (Outcome.ratio (med f traced) (med f untraced) -. 1.0)

(* -- closed loop ------------------------------------------------------------- *)

let closed_loop ~sp ~in_decide ~client ~pool ~replica ~seed ~traced ~fault ~rounds
    ~round_ns ~warmup_ns ~cap ~between =
  let lat = samples cap and pub = samples (max 16 (cap / 8)) in
  let prng = Rng.create (seed lxor 0x7075626c) in
  let global = ref 0.0 and frame = ref 0 and pending = pending ~fault in
  let attempted = ref 0 and failed = ref 0 and frames = ref 0 and decides = ref 0 in
  let rtt_total = ref 0 and words = ref 0.0 in
  let check_pending () =
    failed := !failed + check_pending pending sp replica ~exact:true
  in
  let decide () =
    let reqs = pool.(!frame mod Array.length pool) in
    incr frame;
    incr attempted;
    in_decide := true;
    Span.enter sp Span.Client_decide;
    let w0 = Gc.minor_words () in
    let t0 = Span.now () in
    let reply = Client.decide client reqs in
    let t1 = Span.now () in
    let w1 = Gc.minor_words () in
    Span.leave sp;
    in_decide := false;
    match reply with
    | Error _ ->
      incr failed;
      0
    | Ok replies ->
      push pending ~id:!frame ~global:!global reqs replies;
      if pending.count >= closed_check_batch then check_pending ();
      add lat (t1 - t0);
      incr decides;
      rtt_total := !rtt_total + (t1 - t0);
      words := !words +. (w1 -. w0);
      t1 - t0
  in
  (* the Loadgen mix: a publish rides along every [publish_every] frames *)
  let publish () =
    let v = Rng.float prng 10.0 in
    incr attempted;
    let t0 = Span.now () in
    let reply = Client.publish client ~node:0 v in
    let t1 = Span.now () in
    (* only this client publishes, so the global is its last value *)
    global := v;
    match reply with
    | Ok g when same_bits g v ->
      add pub (t1 - t0);
      t1 - t0
    | Ok _ | Error _ ->
      incr failed;
      0
  in
  let round deadline =
    lat.n <- 0;
    let done_frames = ref 0 and clock = ref 0 in
    while Span.now () < deadline && lat.n < cap do
      let ns = decide () in
      if ns > 0 then begin incr done_frames; clock := !clock + ns end;
      if !frame mod publish_every = 0 then begin
        let ns = publish () in
        if ns > 0 then begin incr done_frames; clock := !clock + ns end
      end
    done;
    check_pending ();
    frames := !frames + !done_frames;
    Outcome.ratio (float_of_int !done_frames) (float_of_int !clock /. 1e9)
  in
  ignore (round (Span.now () + warmup_ns));
  let results =
    List.init rounds (fun r ->
        between ();
        sp.Span.on <- traced && r mod 2 = 1;
        let fps = round (Span.now () + round_ns) in
        let traced = sp.Span.on in
        sp.Span.on <- false;
        let p50 = Outcome.quantile lat.buf lat.n 0.5 in
        { traced; fps; p50; p99 = Outcome.quantile lat.buf lat.n 0.99 })
  in
  ( results,
    { attempted = !attempted; failed = !failed; frames = !frames; decides = !decides;
      rtt_ns = !rtt_total; words = !words; pub; lag_ns = 0 } )

(* -- open loop -------------------------------------------------------------- *)

type conn = {
  lat : samples;  (** due-to-reply latency of each decide *)
  round_of : int array;  (** round of each latency sample *)
  cpub : samples;
  prng : Rng.t;  (** publish values *)
  mutable fault : bool;
  mutable c_attempted : int;
  mutable c_failed : int;
  mutable c_frames : int;
  mutable c_decides : int;
  mutable c_rtt : int;
  mutable c_words : float;
  mutable lag : int;
  mutable last_done : int;
  unchecked : pending;  (** a traced round's replies, checked after it *)
}

(* Frames [k0, k1) of connection [c]'s schedule, the first due at
   [start]; they make up round [round]. *)
let open_round st ~sp ~client ~pool ~replica ~c ~start ~period ~k0 ~k1 ~round ~traced =
  sp.Span.on <- traced && round mod 2 = 1;
  for k = k0 to k1 - 1 do
    let due = start + (c * period / open_conns) + ((k - k0) * period) in
    let wait = due - Span.now () - spin_ns in
    if wait > 0 then Unix.sleepf (float_of_int wait /. 1e9);
    while Span.now () < due do Domain.cpu_relax () done;
    st.c_attempted <- st.c_attempted + 1;
    let lag = Span.now () - due in
    st.lag <- max st.lag lag;
    if lag > max_lag_ns then st.c_failed <- st.c_failed + 1;
    if k mod 4 = 3 then begin
      let node = (c * nodes_per_conn) + (k / 4 mod nodes_per_conn) in
      let t0 = Span.now () in
      match Client.publish client ~node (Rng.float st.prng 10.0) with
      | Ok _ ->
        let t1 = Span.now () in
        add st.cpub (t1 - t0);
        st.c_frames <- st.c_frames + 1;
        st.last_done <- t1
      | Error _ -> st.c_failed <- st.c_failed + 1
    end
    else begin
      let reqs = pool.(((open_conns * k) + c) mod Array.length pool) in
      Span.enter sp Span.Client_decide;
      let w0 = Gc.minor_words () in
      let t0 = Span.now () in
      let reply = Client.decide client reqs in
      let t1 = Span.now () in
      let w1 = Gc.minor_words () in
      Span.leave sp;
      match reply with
      | Error _ -> st.c_failed <- st.c_failed + 1
      | Ok replies ->
        if sp.Span.on then push st.unchecked ~id:k ~global:0.0 reqs replies
        else begin
          let replies =
            if st.fault then (st.fault <- false; flip_first_verdict replies) else replies
          in
          if not (check sp replica ~id:k ~global:0.0 ~exact:false reqs replies) then
            st.c_failed <- st.c_failed + 1
        end;
        st.round_of.(st.lat.n) <- round;
        add st.lat (t1 - due);
        st.c_frames <- st.c_frames + 1;
        st.c_decides <- st.c_decides + 1;
        st.c_rtt <- st.c_rtt + (t1 - t0);
        st.c_words <- st.c_words +. (w1 -. w0);
        st.last_done <- t1
    end
  done;
  sp.Span.on <- false

(* The schedule runs in rounds, each a fresh stretch of it after a
   pause in which [between] runs with no traffic in flight. *)
let open_loop ~recorders ~clients ~pool ~replica ~seed ~traced ~fault ~rounds ~seconds
    ~between =
  let period = int_of_float (float_of_int open_conns *. 1e9 /. open_rate) in
  let count =
    max rounds (int_of_float (seconds *. open_rate /. float_of_int open_conns))
  in
  let conns =
    Array.init open_conns (fun c ->
        { lat = samples count; round_of = Array.make count 0; cpub = samples count;
          prng = Rng.create (seed + (31 * (c + 1))); fault = fault && c = 0;
          c_attempted = 0; c_failed = 0; c_frames = 0; c_decides = 0; c_rtt = 0;
          c_words = 0.0; lag = 0; last_done = 0; unchecked = pending ~fault:false })
  in
  let on_schedule = ref 0 in
  for r = 0 to rounds - 1 do
    if r > 0 then between ();
    let k0 = r * count / rounds and k1 = (r + 1) * count / rounds in
    let start = Span.now () + 10_000_000 in
    let conn c () =
      open_round conns.(c) ~sp:recorders.(c) ~client:clients.(c) ~pool ~replica ~c ~start
        ~period ~k0 ~k1 ~round:r ~traced
    in
    (* connection 0 runs on this domain, connection 1 on a second one *)
    let other = Domain.spawn (conn 1) in
    conn 0 ();
    Domain.join other;
    on_schedule :=
      !on_schedule
      + (Array.fold_left (fun acc st -> max acc st.last_done) start conns - start);
    (* A traced round's replies are checked once the second domain is
       gone, so the layer timings are not inflated by stop-the-world
       minor collections across domains. *)
    Array.iteri
      (fun c st ->
        let sp = recorders.(c) in
        sp.Span.on <- traced && r mod 2 = 1;
        st.c_failed <- st.c_failed + check_pending st.unchecked sp replica ~exact:false;
        sp.Span.on <- false)
      conns
  done;
  let scratch = Array.make (open_conns * count) 0 in
  let quantile_of keep q =
    let n = ref 0 in
    Array.iter
      (fun st ->
        for i = 0 to st.lat.n - 1 do
          if keep st.round_of.(i) then begin
            scratch.(!n) <- st.lat.buf.(i);
            incr n
          end
        done)
      conns;
    Outcome.quantile scratch !n q
  in
  let is_traced r = traced && r mod 2 = 1 in
  let results =
    List.init rounds (fun r ->
        { traced = is_traced r; fps = 0.0; p50 = quantile_of (( = ) r) 0.5; p99 = 0.0 })
  in
  let pub = samples (open_conns * count) in
  let sum f = Array.fold_left (fun acc st -> acc + f st) 0 conns in
  Array.iter (fun st -> for i = 0 to st.cpub.n - 1 do add pub st.cpub.buf.(i) done) conns;
  let totals =
    { attempted = sum (fun st -> st.c_attempted); failed = sum (fun st -> st.c_failed);
      frames = sum (fun st -> st.c_frames); decides = sum (fun st -> st.c_decides);
      rtt_ns = sum (fun st -> st.c_rtt);
      words = Array.fold_left (fun acc st -> acc +. st.c_words) 0.0 conns; pub;
      lag_ns = Array.fold_left (fun acc st -> max acc st.lag) 0 conns }
  in
  ( results, totals,
    quantile_of (fun r -> not (is_traced r)) 0.99,
    Outcome.ratio (float_of_int totals.frames) (float_of_int !on_schedule /. 1e9) )

(* -- the workloads ------------------------------------------------------------ *)

let run transport loop ~seed ~scale ~seconds ~traced ~fault =
  let full = scale = Outcome.Full in
  let conns = match loop with Closed -> 1 | Open -> open_conns in
  let recorders = Array.init conns (fun c -> Span.create ~tid:(c + 1)) in
  let in_decide = ref false in
  let pool = gen_pool ~seed (if full then 1024 else 64) in
  let start () =
    let server =
      match transport with
      | Mem -> start_local recorders.(0) in_decide
      | Tcp -> spawn_child ()
    in
    let connect _ =
      match Client.connect (endpoint server) with
      | Ok client -> client
      | Error err ->
        stop server;
        failwith ("connect: " ^ Client.error_to_string err)
    in
    (server, Array.init conns connect)
  in
  let teardown (server, clients) =
    Array.iter Client.close clients;
    stop server
  in
  let setup, ((server, clients) as env) = Outcome.setup start ~teardown in
  Fun.protect ~finally:(fun () -> teardown env) @@ fun () ->
  let replica = Estimator.create ~nodes:Server.default_config.Server.nodes () in
  let rounds = if full then 30 else 2 in
  let between () = Outcome.resample setup in
  let sum0, count0 = decide_handling clients.(0) and acq0, wait0 = locks server in
  let results, totals, p99, throughput =
    match loop with
    | Closed ->
      let warmup = Float.min 0.5 (seconds /. 20.0) in
      let results, totals =
        closed_loop ~sp:recorders.(0) ~in_decide ~client:clients.(0) ~pool ~replica ~seed
          ~traced ~fault ~rounds
          ~round_ns:(int_of_float ((seconds -. warmup) /. float_of_int rounds *. 1e9))
          ~warmup_ns:(int_of_float (warmup *. 1e9))
          ~cap:(if full then 1 lsl 18 else 1 lsl 12)
          ~between
      in
      let untraced = List.filter (fun r -> not r.traced) results in
      ( results, totals, med (fun r -> r.p99) untraced,
        Outcome.better_half_median ~lower:false (List.map (fun r -> r.fps) untraced) )
    | Open ->
      open_loop ~recorders ~clients ~pool ~replica ~seed ~traced ~fault ~rounds ~seconds
        ~between
  in
  let sum1, count1 = decide_handling clients.(0) and acq1, wait1 = locks server in
  let peak_heap_mb = Outcome.peak_heap_mb () in
  let untraced = List.filter (fun r -> not r.traced) results in
  let overhead =
    match loop with
    | Closed -> overhead results (fun r -> 1.0 /. r.fps)
    | Open -> overhead results (fun r -> r.p50)
  in
  let rs = Array.to_list recorders in
  ( Outcome.make ~attempted:totals.attempted ~failed:totals.failed
      ~e2e:
        [ ("setup_s", Outcome.setup_s setup); ("throughput_per_s", throughput);
          ( "latency_p50_us",
            Outcome.better_half_median ~lower:true (List.map (fun r -> r.p50) untraced)
            /. 1e3 );
          ("peak_heap_mb", peak_heap_mb) ]
      ~layer:
        (layers rs ~transport ~totals ~handling:(sum1 -. sum0, count1 - count0)
           ~locks:(acq1 - acq0, wait1 - wait0)
           ~retries:(Array.fold_left (fun acc c -> acc + Client.retries_used c) 0 clients)
           ~p99 ~overhead),
    rs )
