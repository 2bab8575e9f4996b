open Mitos_tag
module Codec = Mitos_util.Codec
module Propagation = Mitos_obs.Propagation
module Snapshot = Mitos_obs.Registry.Snapshot

let version = 2
let min_version = 1
let default_max_frame = 1 lsl 20

type error =
  | Truncated of { offset : int }
  | Oversized of { announced : int; limit : int }
  | Bad_version of int
  | Bad_kind of int
  | Corrupt of { offset : int; msg : string }

let error_to_string = function
  | Truncated { offset } -> Printf.sprintf "truncated frame at byte %d" offset
  | Oversized { announced; limit } ->
    Printf.sprintf "oversized frame: %d bytes announced (limit %d)" announced
      limit
  | Bad_version v -> Printf.sprintf "unsupported protocol version %d" v
  | Bad_kind k -> Printf.sprintf "unknown message kind 0x%02x" k
  | Corrupt { offset; msg } ->
    Printf.sprintf "corrupt frame at byte %d: %s" offset msg

type decide_request = {
  space : int;
  pollution : float;
  candidates : (Tag.t * int) list;
}

type decided = Mitos.Decision.ranked = {
  tag : Tag.t;
  marginal : float;
  verdict : Mitos.Decision.verdict;
}

type stats = {
  served : int;
  decided : int;
  publishes : int;
  nodes : int;
  global : float;
}

type telemetry = {
  node : string;
  healthy : bool;
  health : string;
  snapshot : Snapshot.t;
}

type request =
  | Ping
  | Decide of decide_request list
  | Publish of { node : int; value : float }
  | Read_global
  | Read_node of int
  | Query_stats
  | Query_telemetry

type response =
  | Pong
  | Decisions of decided list list
  | Published of float
  | Global of float
  | Node_value of float
  | Stats of stats
  | Telemetry of telemetry
  | Err of string

let request_kind = function
  | Ping -> "ping"
  | Decide _ -> "decide"
  | Publish _ -> "publish"
  | Read_global -> "global"
  | Read_node _ -> "node"
  | Query_stats -> "stats"
  | Query_telemetry -> "telemetry"

(* -- message discriminators ------------------------------------------- *)

let k_ping = 0x01
and k_decide = 0x02
and k_publish = 0x03
and k_global = 0x04
and k_node = 0x05
and k_stats = 0x06
and k_telemetry = 0x07

let k_pong = 0x81
and k_decisions = 0x82
and k_published = 0x83
and k_global_is = 0x84
and k_node_value = 0x85
and k_stats_reply = 0x86
and k_telemetry_reply = 0x87
and k_err = 0xFF

(* -- field codecs ------------------------------------------------------ *)

let enc_tag e (tag : Tag.t) =
  Codec.Enc.uint e (Tag_type.to_int tag.ty);
  Codec.Enc.uint e tag.id

let dec_tag d =
  let ty_int = Codec.Dec.uint d in
  if ty_int < 0 || ty_int >= Tag_type.count then
    raise (Codec.Malformed (Printf.sprintf "unknown tag type %d" ty_int));
  { Tag.ty = Tag_type.of_int ty_int; id = Codec.Dec.uint d }

(* The decide payloads are written by direct recursion, not through
   [Codec.Enc.list] with a closure per level: the same bytes (a count
   varint, then the elements) in fewer calls per candidate. *)
let rec enc_candidates e = function
  | [] -> ()
  | (tag, count) :: rest ->
    enc_tag e tag;
    Codec.Enc.uint e count;
    enc_candidates e rest

let rec enc_decide_requests e = function
  | [] -> ()
  | (r : decide_request) :: rest ->
    Codec.Enc.uint e r.space;
    Codec.Enc.float e r.pollution;
    Codec.Enc.uint e (List.length r.candidates);
    enc_candidates e r.candidates;
    enc_decide_requests e rest

let dec_decide_request d =
  let space = Codec.Dec.uint d in
  let pollution = Codec.Dec.float d in
  let candidates =
    Codec.Dec.list d (fun d ->
        let tag = dec_tag d in
        (tag, Codec.Dec.uint d))
  in
  { space; pollution; candidates }

(* One candidate's outcome, the element of a Decisions entry *)
let enc_outcome e tag marginal propagated =
  enc_tag e tag;
  Codec.Enc.float e marginal;
  Codec.Enc.bool e propagated

let rec enc_decided e = function
  | [] -> ()
  | (r : decided) :: rest ->
    enc_outcome e r.tag r.marginal (r.verdict = Mitos.Decision.Propagate);
    enc_decided e rest

let rec enc_decisions e = function
  | [] -> ()
  | one :: rest ->
    Codec.Enc.uint e (List.length one);
    enc_decided e one;
    enc_decisions e rest

let dec_decided d =
  let tag = dec_tag d in
  let marginal = Codec.Dec.float d in
  let verdict =
    if Codec.Dec.bool d then Mitos.Decision.Propagate else Mitos.Decision.Block
  in
  { tag; marginal; verdict }

(* -- framing ----------------------------------------------------------- *)

let frame = Codec.length_prefixed

let unframe ?(max_frame = default_max_frame) buf ~pos =
  (* hand-rolled varint read so an incomplete prefix is Truncated, not
     an exception, and an oversized announcement never reaches the
     String.sub below *)
  let len = String.length buf in
  let rec length_prefix pos shift acc =
    if pos >= len then Error (Truncated { offset = pos })
    else if shift > Sys.int_size then
      Error (Corrupt { offset = pos; msg = "frame length varint too long" })
    else
      let b = Char.code buf.[pos] in
      let acc = acc lor ((b land 0x7F) lsl shift) in
      if b land 0x80 = 0 then Ok (acc, pos + 1)
      else length_prefix (pos + 1) (shift + 7) acc
  in
  match length_prefix pos 0 0 with
  | Error _ as e -> e
  | Ok (announced, body_pos) ->
    if announced < 0 || announced > max_frame then
      Error (Oversized { announced; limit = max_frame })
    else if body_pos + announced > len then Error (Truncated { offset = len })
    else Ok (String.sub buf body_pos announced, body_pos + announced)

(* -- trace context ----------------------------------------------------- *)

let enc_trace e (ctx : Propagation.context) =
  Codec.Enc.string e ctx.trace_id;
  Codec.Enc.string e ctx.span_id

(* Strict like every other field: ids must be exactly 32/16 lowercase
   hex chars, so a hostile peer cannot smuggle arbitrary bytes into
   span args or /tracez queries through the trace field. *)
let dec_trace d =
  let trace_id = Codec.Dec.string d in
  if not (Propagation.is_valid_trace_id trace_id) then
    raise (Codec.Malformed (Printf.sprintf "invalid trace id %S" trace_id));
  let span_id = Codec.Dec.string d in
  if not (Propagation.is_valid_span_id span_id) then
    raise (Codec.Malformed (Printf.sprintf "invalid span id %S" span_id));
  { Propagation.trace_id; span_id }

(* -- bodies ------------------------------------------------------------ *)

(* [has_trace]: v2 *request* bodies carry an optional trace context
   between kind and payload; response bodies never do (the client
   already knows the context it sent). v1 request bodies have no trace
   field either — encoding a context at version 1 is a caller bug. *)
let body ?(version = version) ?trace ~has_trace ~id kind payload =
  if version < 2 && Option.is_some trace then
    invalid_arg "Wire: trace context requires protocol version >= 2";
  let e = Codec.Enc.create () in
  Codec.Enc.uint e version;
  Codec.Enc.uint e id;
  Codec.Enc.uint e kind;
  if version >= 2 && has_trace then Codec.Enc.option e (enc_trace e) trace;
  payload e;
  Codec.Enc.contents e

let encode_request_body ?version ?trace ~id req =
  let body ~id kind payload =
    body ?version ?trace ~has_trace:true ~id kind payload
  in
  (match req with
    | Ping -> body ~id k_ping (fun _ -> ())
    | Decide batch ->
      body ~id k_decide (fun e ->
          Codec.Enc.uint e (List.length batch);
          enc_decide_requests e batch)
    | Publish { node; value } ->
      body ~id k_publish (fun e ->
          Codec.Enc.uint e node;
          Codec.Enc.float e value)
    | Read_global -> body ~id k_global (fun _ -> ())
    | Read_node node -> body ~id k_node (fun e -> Codec.Enc.uint e node)
    | Query_stats -> body ~id k_stats (fun _ -> ())
    | Query_telemetry -> body ~id k_telemetry (fun _ -> ()))

let encode_response_body ~id resp =
  let body ~id kind payload = body ~has_trace:false ~id kind payload in
  (match resp with
    | Pong -> body ~id k_pong (fun _ -> ())
    | Decisions batches ->
      body ~id k_decisions (fun e ->
          Codec.Enc.uint e (List.length batches);
          enc_decisions e batches)
    | Published g -> body ~id k_published (fun e -> Codec.Enc.float e g)
    | Global g -> body ~id k_global_is (fun e -> Codec.Enc.float e g)
    | Node_value v -> body ~id k_node_value (fun e -> Codec.Enc.float e v)
    | Stats s ->
      body ~id k_stats_reply (fun e ->
          Codec.Enc.uint e s.served;
          Codec.Enc.uint e s.decided;
          Codec.Enc.uint e s.publishes;
          Codec.Enc.uint e s.nodes;
          Codec.Enc.float e s.global)
    | Telemetry r ->
      body ~id k_telemetry_reply (fun e ->
          Codec.Enc.string e r.node;
          Codec.Enc.bool e r.healthy;
          Codec.Enc.string e r.health;
          Snapshot.write e r.snapshot)
    | Err msg -> body ~id k_err (fun e -> Codec.Enc.string e msg))

let encode_request ?version ?trace ~id req =
  frame (encode_request_body ?version ?trace ~id req)

let encode_response ~id resp = frame (encode_response_body ~id resp)

let decode_body which ~read_trace decode_payload s =
  let d = Codec.Dec.of_string s in
  match
    let v = Codec.Dec.uint d in
    if v < min_version || v > version then Error (Bad_version v)
    else
      let id = Codec.Dec.uint d in
      let kind = Codec.Dec.uint d in
      let trace =
        if read_trace && v >= 2 then Codec.Dec.option d dec_trace else None
      in
      match decode_payload d kind with
      | None -> Error (Bad_kind kind)
      | Some msg ->
        Codec.Dec.expect_end d;
        Ok (id, trace, msg)
  with
  | result -> result
  | exception Codec.Malformed msg ->
    Error
      (Corrupt
         { offset = Codec.Dec.pos d;
           msg = Printf.sprintf "%s: %s" which msg })

(* Every request payload but Decide's. *)
let dec_other d kind =
  if kind = k_ping then Some Ping
  else if kind = k_publish then
    let node = Codec.Dec.uint d in
    let value = Codec.Dec.float d in
    Some (Publish { node; value })
  else if kind = k_global then Some Read_global
  else if kind = k_node then Some (Read_node (Codec.Dec.uint d))
  else if kind = k_stats then Some Query_stats
  else if kind = k_telemetry then Some Query_telemetry
  else None

let decode_request s =
  decode_body "request" ~read_trace:true
    (fun d kind ->
      if kind = k_decide then
        Some (Decide (Codec.Dec.list d dec_decide_request))
      else dec_other d kind)
    s

(* The bytes [Codec.Dec.list d dec_decide_request] reads, in the same
   order and with the same checks, so a malformed payload fails at the
   same byte with the same message; nothing is sized from a count. *)
let read_decide ~request ~candidate st d =
  for _ = 1 to Codec.Dec.count d do
    let space = Codec.Dec.uint d in
    let pollution = Codec.Dec.float d in
    request st ~space ~pollution;
    for _ = 1 to Codec.Dec.count d do
      let tag = dec_tag d in
      candidate st tag (Codec.Dec.uint d)
    done
  done

let decode_request_into ~request ~candidate st s =
  decode_body "request" ~read_trace:true
    (fun d kind ->
      if kind = k_decide then begin
        read_decide ~request ~candidate st d;
        Some None
      end
      else Option.map Option.some (dec_other d kind))
    s

let encode_decisions_body ~id ~requests decide st =
  body ~has_trace:false ~id k_decisions (fun e ->
      Codec.Enc.uint e requests;
      for r = 0 to requests - 1 do
        let s = decide st r in
        let n = Mitos.Decision.length s in
        Codec.Enc.uint e n;
        for k = 0 to n - 1 do
          enc_outcome e
            (Mitos.Decision.nth_tag s k)
            (Mitos.Decision.nth_marginal s k)
            (Mitos.Decision.nth_propagated s k)
        done
      done)

let decode_response s =
  match
    decode_body "response" ~read_trace:false
      (fun d kind ->
      if kind = k_pong then Some Pong
      else if kind = k_decisions then
        Some (Decisions (Codec.Dec.list d (fun d -> Codec.Dec.list d dec_decided)))
      else if kind = k_published then Some (Published (Codec.Dec.float d))
      else if kind = k_global_is then Some (Global (Codec.Dec.float d))
      else if kind = k_node_value then Some (Node_value (Codec.Dec.float d))
      else if kind = k_stats_reply then
        let served = Codec.Dec.uint d in
        let decided = Codec.Dec.uint d in
        let publishes = Codec.Dec.uint d in
        let nodes = Codec.Dec.uint d in
        let global = Codec.Dec.float d in
        Some (Stats { served; decided; publishes; nodes; global })
      else if kind = k_telemetry_reply then
        let node = Codec.Dec.string d in
        let healthy = Codec.Dec.bool d in
        let health = Codec.Dec.string d in
        let snapshot = Snapshot.read d in
        Some (Telemetry { node; healthy; health; snapshot })
      else if kind = k_err then Some (Err (Codec.Dec.string d))
      else None)
      s
  with
  | Ok (id, _trace, resp) -> Ok (id, resp)
  | Error _ as e -> e

let exactly_one_frame ?max_frame decode s =
  match unframe ?max_frame s ~pos:0 with
  | Error _ as e -> e
  | Ok (body, pos) ->
    if pos <> String.length s then
      Error
        (Corrupt
           { offset = pos;
             msg = Printf.sprintf "%d bytes after frame" (String.length s - pos) })
    else decode body

let decode_request_frame ?max_frame s =
  exactly_one_frame ?max_frame decode_request s

let decode_response_frame ?max_frame s =
  exactly_one_frame ?max_frame decode_response s
