module Wire = Mitos_net.Wire
module Transport = Mitos_net.Transport
module Client = Mitos_net.Client
module Server = Mitos_net.Server
module Netcluster = Mitos_net.Netcluster
module Cluster = Mitos_distrib.Cluster
module Loadgen = Mitos_net.Loadgen
module Netio = Mitos_obs.Netio
module Executor = Mitos_parallel.Executor
module Tag = Mitos_tag.Tag
module Tag_type = Mitos_tag.Tag_type
module W = Mitos_workload

let params = Mitos_experiments.Calib.sensitivity_params ()

(* fresh loopback name per test so failures don't leak registrations
   into each other *)
let fresh_name =
  let n = ref 0 in
  fun prefix ->
    incr n;
    Printf.sprintf "%s-%d" prefix !n

let with_server ?config ?(params = params) f =
  let service = Server.create ?config ~params () in
  let name = fresh_name "t" in
  let listener = Server.start service (Transport.Memory name) in
  Fun.protect
    ~finally:(fun () -> Server.stop listener)
    (fun () -> f service (Transport.Memory name))

let ok_client = function
  | Ok v -> v
  | Error err -> Alcotest.fail (Client.error_to_string err)

(* -- Wire: QCheck round-trip --------------------------------------------- *)

let gen_tag =
  QCheck.Gen.(
    map2
      (fun ty id -> Tag.make ty id)
      (oneofl Tag_type.all) (int_bound 100_000))

let gen_decide_request =
  QCheck.Gen.(
    map3
      (fun space pollution candidates -> { Wire.space; pollution; candidates })
      (int_bound 64)
      (float_bound_inclusive 1e6)
      (list_size (int_bound 8) (pair gen_tag (int_bound 1000))))

let gen_request =
  QCheck.Gen.(
    oneof
      [
        return Wire.Ping;
        map (fun b -> Wire.Decide b) (list_size (int_bound 5) gen_decide_request);
        map2
          (fun node value -> Wire.Publish { node; value })
          (int_bound 1000) (float_bound_inclusive 1e9);
        return Wire.Read_global;
        map (fun n -> Wire.Read_node n) (int_bound 1000);
        return Wire.Query_stats;
        return Wire.Query_telemetry;
      ])

let gen_decided =
  QCheck.Gen.(
    map3
      (fun tag marginal propagate ->
        {
          Wire.tag;
          marginal;
          verdict =
            (if propagate then Mitos.Decision.Propagate
             else Mitos.Decision.Block);
        })
      gen_tag
      (float_bound_inclusive 1e6)
      bool)

let gen_response =
  QCheck.Gen.(
    oneof
      [
        return Wire.Pong;
        map
          (fun b -> Wire.Decisions b)
          (list_size (int_bound 4) (list_size (int_bound 6) gen_decided));
        map (fun g -> Wire.Published g) (float_bound_inclusive 1e9);
        map (fun g -> Wire.Global g) (float_bound_inclusive 1e9);
        map (fun v -> Wire.Node_value v) (float_bound_inclusive 1e9);
        map
          (fun ((served, decided), (publishes, (nodes, global))) ->
            Wire.Stats { served; decided; publishes; nodes; global })
          (pair
             (pair (int_bound 100000) (int_bound 100000))
             (pair (int_bound 100000)
                (pair (int_bound 64) (float_bound_inclusive 1e9))));
        map (fun s -> Wire.Err s) (string_size (int_bound 80));
      ])

let gen_trace =
  QCheck.Gen.(
    map3
      (fun a b c ->
        {
          Mitos_obs.Propagation.trace_id = Printf.sprintf "%016x%016x" a b;
          span_id = Printf.sprintf "%016x" c;
        })
      (int_bound max_int) (int_bound max_int) (int_bound max_int))

let qcheck_request_roundtrip =
  QCheck.Test.make ~name:"encode/decode request = id" ~count:500
    QCheck.(make gen_request)
    (fun req ->
      match Wire.decode_request_frame (Wire.encode_request ~id:7 req) with
      | Ok (7, None, req') -> req' = req
      | _ -> false)

(* v2 with and without a trace context: the decoded triple returns
   exactly what was sent *)
let qcheck_request_trace_roundtrip =
  QCheck.Test.make ~name:"encode/decode request+trace = id" ~count:500
    QCheck.(make Gen.(pair gen_request (option gen_trace)))
    (fun (req, trace) ->
      match
        Wire.decode_request_frame (Wire.encode_request ?trace ~id:7 req)
      with
      | Ok (7, trace', req') -> req' = req && trace' = trace
      | _ -> false)

(* a v1 peer's frames must keep decoding under the v2 decoder (no
   trace field to read), and a v2 encoder asked for v1 must refuse to
   smuggle a trace into a version that has no field for it *)
let qcheck_v1_frames_decode_under_v2 =
  QCheck.Test.make ~name:"v1 frames decode under v2, trace None" ~count:500
    QCheck.(make gen_request)
    (fun req ->
      match
        Wire.decode_request_frame (Wire.encode_request ~version:1 ~id:3 req)
      with
      | Ok (3, None, req') -> req' = req
      | _ -> false)

let qcheck_response_roundtrip =
  QCheck.Test.make ~name:"encode/decode response = id" ~count:500
    QCheck.(make gen_response)
    (fun resp ->
      match Wire.decode_response_frame (Wire.encode_response ~id:9 resp) with
      | Ok (9, resp') -> resp' = resp
      | _ -> false)

let qcheck_truncation_never_raises =
  QCheck.Test.make ~name:"every truncation is Error Truncated, no raise"
    ~count:200
    QCheck.(make gen_request)
    (fun req ->
      let frame = Wire.encode_request ~id:1 req in
      List.for_all
        (fun len ->
          match Wire.decode_request_frame (String.sub frame 0 len) with
          | Error (Wire.Truncated _) -> true
          | _ -> false)
        (List.init (String.length frame) Fun.id))

(* -- Wire: adversarial decoding ------------------------------------------ *)

let check_error name expect got =
  Alcotest.(check string) name expect
    (match got with
    | Ok _ -> "Ok"
    | Error err -> (
      match (err : Wire.error) with
      | Truncated _ -> "Truncated"
      | Oversized _ -> "Oversized"
      | Bad_version v -> Printf.sprintf "Bad_version %d" v
      | Bad_kind k -> Printf.sprintf "Bad_kind %d" k
      | Corrupt _ -> "Corrupt"))

let test_wire_oversized () =
  (* frame announcing 1 GiB, no body: must be rejected from the length
     prefix alone, before any allocation *)
  let e = Mitos_util.Codec.Enc.create () in
  Mitos_util.Codec.Enc.uint e (1 lsl 30);
  let bomb = Mitos_util.Codec.Enc.contents e in
  (match Wire.unframe bomb ~pos:0 with
  | Error (Wire.Oversized { announced; limit }) ->
    Alcotest.(check int) "announced" (1 lsl 30) announced;
    Alcotest.(check int) "limit" Wire.default_max_frame limit
  | _ -> Alcotest.fail "expected Oversized");
  (* a small max_frame tightens the guard *)
  let frame = Wire.encode_request ~id:1 Wire.Read_global in
  check_error "tight limit" "Oversized"
    (Wire.decode_request_frame ~max_frame:2 frame);
  (* an unterminated length varint is Corrupt, not an infinite loop *)
  check_error "overlong varint" "Corrupt"
    (Wire.unframe (String.make 12 '\xff') ~pos:0
     |> Result.map (fun (b, _) -> b))

let test_wire_bad_version () =
  let frame = Wire.encode_request ~id:3 Wire.Ping in
  match Wire.unframe frame ~pos:0 with
  | Ok (body, _) ->
    let hacked = Bytes.of_string body in
    Bytes.set hacked 0 '\x63' (* version 99 *);
    check_error "version 99" "Bad_version 99"
      (Wire.decode_request (Bytes.to_string hacked))
  | Error _ -> Alcotest.fail "self-made frame must unframe"

let test_wire_bad_kind () =
  (* version 1, id 0, kind 0x42: structurally fine, unknown meaning *)
  check_error "kind 0x42" "Bad_kind 66"
    (Wire.decode_request "\x01\x00\x42")

let test_wire_trailing_garbage () =
  let frame = Wire.encode_request ~id:1 Wire.Ping in
  check_error "bytes after frame" "Corrupt"
    (Wire.decode_request_frame (frame ^ "zz"));
  (* trailing bytes inside the body are a body-level violation *)
  (match Wire.unframe frame ~pos:0 with
  | Ok (body, _) ->
    check_error "bytes after payload" "Corrupt"
      (Wire.decode_request (body ^ "z"))
  | Error _ -> Alcotest.fail "self-made frame must unframe");
  (* an empty buffer is a framing-level Truncated; an empty *body* is
     a body-level Corrupt (the version byte is missing) *)
  check_error "empty buffer" "Truncated" (Wire.decode_request_frame "");
  check_error "empty body" "Corrupt" (Wire.decode_request "")

(* a byte-literal v1 ping frame body (version 1, id 7, kind 0x01):
   the compatibility contract pinned to concrete bytes, independent of
   our own encoder *)
let test_wire_v1_fixture () =
  (match Wire.decode_request "\x01\x07\x01" with
  | Ok (7, None, Wire.Ping) -> ()
  | _ -> Alcotest.fail "v1 ping fixture must decode");
  (* and the v2 form of the same request, with a trace context *)
  let trace =
    {
      Mitos_obs.Propagation.trace_id = String.make 32 'a';
      span_id = String.make 16 'b';
    }
  in
  (match Wire.decode_request (Wire.encode_request_body ~trace ~id:7 Wire.Ping) with
  | Ok (7, Some t, Wire.Ping) ->
    Alcotest.(check string) "trace id survives" trace.trace_id
      t.Mitos_obs.Propagation.trace_id;
    Alcotest.(check string) "span id survives" trace.span_id
      t.Mitos_obs.Propagation.span_id
  | _ -> Alcotest.fail "v2 ping with trace must decode");
  (* asking the encoder for v1 with a trace is a caller bug *)
  Alcotest.(check bool) "v1 + trace rejected" true
    (try
       ignore (Wire.encode_request_body ~version:1 ~trace ~id:1 Wire.Ping);
       false
     with Invalid_argument _ -> true);
  (* a corrupted trace field (invalid hex) is Corrupt, not a crash *)
  let body = Wire.encode_request_body ~trace ~id:7 Wire.Ping in
  let zapped = Bytes.of_string body in
  (* the 'a' run is the trace id; zap one char to non-hex *)
  (match String.index body 'a' with
  | i -> Bytes.set zapped i 'z'
  | exception Not_found -> Alcotest.fail "trace id bytes not found");
  check_error "invalid trace hex" "Corrupt"
    (Wire.decode_request (Bytes.to_string zapped))

let test_wire_error_offsets () =
  (* the reported byte offset points at the failure, not at zero *)
  (match Wire.decode_request_frame "" with
  | Error (Wire.Truncated { offset }) ->
    Alcotest.(check int) "empty buffer fails at 0" 0 offset
  | _ -> Alcotest.fail "expected Truncated");
  let frame = Wire.encode_request ~id:1 Wire.Ping in
  (match Wire.decode_request_frame (String.sub frame 0 2) with
  | Error (Wire.Truncated { offset }) ->
    Alcotest.(check bool) "truncation offset past length prefix" true
      (offset > 0)
  | _ -> Alcotest.fail "expected Truncated");
  match Wire.decode_request_frame (frame ^ "zz") with
  | Error (Wire.Corrupt { offset; _ }) ->
    Alcotest.(check int) "trailing bytes flagged at frame end" 
      (String.length frame) offset
  | _ -> Alcotest.fail "expected Corrupt"

(* The server's frame decoder reports [Codec.Dec.pos] as the Corrupt
   offset, so every offset below is pinned to a concrete value. The
   request mixes one-byte and multi-byte varints. *)
let test_wire_error_offsets_pinned () =
  let req =
    Wire.Decide
      [
        {
          Wire.space = 200;
          pollution = 0.5;
          candidates =
            [
              (Tag.make Tag_type.Network 3, 1);
              (Tag.make Tag_type.File 70_000, 300);
            ];
        };
      ]
  in
  let describe = function
    | Ok _ -> "ok"
    | Error (Wire.Truncated { offset }) -> Printf.sprintf "T%d" offset
    | Error (Wire.Corrupt { offset; _ }) -> Printf.sprintf "C%d" offset
    | Error _ -> "other"
  in
  let prefixes s decode =
    String.concat " "
      (List.init (String.length s + 1) (fun n -> describe (decode (String.sub s 0 n))))
  in
  let body = Wire.encode_request_body ~id:300 req in
  Alcotest.(check string) "body prefixes"
    "C0 C1 C2 C3 C4 C5 C6 C7 C8 C9 C10 C11 C12 C13 C14 C15 C16 C17 C18 C19 \
     C20 C21 C22 C23 C24 C25 ok"
    (prefixes body Wire.decode_request);
  let frame = Wire.encode_request ~id:300 req in
  Alcotest.(check string) "frame prefixes"
    "T0 T1 T2 T3 T4 T5 T6 T7 T8 T9 T10 T11 T12 T13 T14 T15 T16 T17 T18 T19 \
     T20 T21 T22 T23 T24 T25 T26 ok"
    (prefixes frame Wire.decode_request_frame);
  (* an overlong varint fails where the loop gave up; a bad byte, just
     past it *)
  Alcotest.(check string) "overlong id varint" "C11"
    (describe (Wire.decode_request ("\x01" ^ String.make 12 '\xff')));
  Alcotest.(check string) "invalid trace presence byte" "C4"
    (describe (Wire.decode_request "\x02\x01\x01\x07"))

(* Wire bytes pinned to literal hex: a decide request frame of three
   requests with a trace context, and the Decisions reply a fresh
   server frames for it. The reply also pins the Eq. (8) marginals
   bit for bit. *)
let hex s =
  String.concat "" (List.init (String.length s) (fun i -> Printf.sprintf "%02x" (Char.code s.[i])))

let test_wire_golden_decide_frames () =
  let trace =
    {
      Mitos_obs.Propagation.trace_id = "0123456789abcdef0123456789abcdef";
      span_id = "00f067aa0ba902b7";
    }
  in
  let req =
    Wire.Decide
      [
        {
          Wire.space = 2;
          pollution = 12.5;
          candidates =
            [
              (Tag.make Tag_type.Network 3, 1);
              (Tag.make Tag_type.File 70_000, 300);
              (Tag.make Tag_type.Process 1, 0);
            ];
        };
        {
          Wire.space = 0;
          pollution = 0.0;
          candidates = [ (Tag.make Tag_type.Network 9, 7) ];
        };
        {
          Wire.space = 5;
          pollution = 250_000.0;
          candidates =
            [ (Tag.make Tag_type.File 2, 64); (Tag.make Tag_type.Network 3, 2) ];
        };
      ]
  in
  let request = Wire.encode_request ~trace ~id:300 req in
  let reply =
    match Wire.unframe request ~pos:0 with
    | Ok (body, _) -> Wire.frame (Server.handle_body (Server.create ~params ()) body)
    | Error err -> Alcotest.fail (Wire.error_to_string err)
  in
  Alcotest.(check string) "request frame"
    "6b02ac0202012030313233343536373839616263646566303132333435363738\
     3961626364656610303066303637616130626139303262370302000000000000\
     29400300030101f0a204ac020201000000000000000000000100090705000000\
     0080840e4102010240000302"
    (hex request);
  Alcotest.(check string) "reply frame"
    "4d02ac02820103030201000000000000f0ff01000300008068f9ffefbf0101f0\
     a204505cd9ae45c828bf0001000975649b0739a5abbf00020003cd3b7fc6f1e6\
     d2bf010102000000d06ccdac3f00"
    (hex reply)

(* Long decide lists round-trip, and every cut of one fails at the end
   of the input, as a short one does. *)
let test_wire_long_decide_lists () =
  let candidates =
    List.init 100 (fun i -> (Tag.make Tag_type.File (i * 977), i mod 7))
  in
  let one i =
    { Wire.space = i; pollution = 1.5; candidates = [ List.nth candidates i ] }
  in
  let req =
    Wire.Decide
      (List.init 70 one @ [ { Wire.space = 3; pollution = 2.0; candidates } ])
  in
  (match Wire.decode_request_frame (Wire.encode_request ~id:9 req) with
  | Ok (9, None, req') ->
    Alcotest.(check bool) "request round-trips" true (req = req')
  | _ -> Alcotest.fail "long decide request must decode");
  let decided =
    List.map
      (fun (tag, n) ->
        {
          Wire.tag;
          marginal = float_of_int n -. 3.0;
          verdict =
            (if n < 3 then Mitos.Decision.Propagate else Mitos.Decision.Block);
        })
      candidates
  in
  let resp =
    Wire.Decisions (List.init 66 (fun _ -> [ List.hd decided ]) @ [ decided ])
  in
  (match Wire.decode_response_frame (Wire.encode_response ~id:9 resp) with
  | Ok (9, resp') ->
    Alcotest.(check bool) "response round-trips" true (resp = resp')
  | _ -> Alcotest.fail "long decisions response must decode");
  let body = Wire.encode_request_body ~id:9 req in
  List.iter
    (fun n ->
      match Wire.decode_request (String.sub body 0 n) with
      | Error (Wire.Corrupt { offset; _ }) ->
        Alcotest.(check int) (Printf.sprintf "cut at %d" n) n offset
      | _ -> Alcotest.failf "cut at %d must be Corrupt" n)
    (List.init (String.length body) Fun.id)

(* A v2 ping whose trace-id length varint decodes to -1. *)
let poison_frame = "\x0d\x02\x01\x01\x01\xff\xff\xff\xff\xff\xff\xff\xff\x7f"

let test_wire_negative_string_length () =
  (match Wire.decode_request_frame poison_frame with
  | Error (Wire.Corrupt { offset; _ }) ->
    Alcotest.(check int) "fails where the length varint ends" 13 offset
  | _ -> Alcotest.fail "expected Corrupt");
  (* a length past the bytes left fails at the same place *)
  match Wire.decode_request "\x02\x01\x01\x01\x20abc" with
  | Error (Wire.Corrupt { offset; _ }) ->
    Alcotest.(check int) "overrun fails after its length" 5 offset
  | _ -> Alcotest.fail "expected Corrupt"

let test_wire_unknown_tag_type () =
  (* candidate with tag-type 200: Corrupt, not Invalid_argument *)
  let e = Mitos_util.Codec.Enc.create () in
  Mitos_util.Codec.Enc.uint e 1 (* version *);
  Mitos_util.Codec.Enc.uint e 5 (* id *);
  Mitos_util.Codec.Enc.uint e 0x02 (* decide *);
  Mitos_util.Codec.Enc.list e
    (fun () ->
      Mitos_util.Codec.Enc.uint e 4 (* space *);
      Mitos_util.Codec.Enc.float e 0.0;
      Mitos_util.Codec.Enc.list e
        (fun () ->
          Mitos_util.Codec.Enc.uint e 200 (* no such tag type *);
          Mitos_util.Codec.Enc.uint e 1;
          Mitos_util.Codec.Enc.uint e 1)
        [ () ])
    [ () ];
  check_error "unknown tag type" "Corrupt"
    (Wire.decode_request (Mitos_util.Codec.Enc.contents e))

(* -- Transport ------------------------------------------------------------ *)

let test_endpoint_strings () =
  let roundtrip s =
    match Transport.endpoint_of_string s with
    | Ok ep -> Transport.endpoint_to_string ep
    | Error msg -> "error: " ^ msg
  in
  Alcotest.(check string) "tcp" "tcp://h:9" (roundtrip "tcp://h:9");
  Alcotest.(check string) "bare" "tcp://h:9" (roundtrip "h:9");
  Alcotest.(check string) "unix" "unix:///tmp/s" (roundtrip "unix:///tmp/s");
  Alcotest.(check string) "mem" "mem://x" (roundtrip "mem://x");
  List.iter
    (fun bad ->
      match Transport.endpoint_of_string bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %S" bad)
    [ "mem://"; "unix://"; "nope"; "h:notaport"; ":9" ]

let test_loopback_registry () =
  let name = fresh_name "reg" in
  Transport.Loopback.register name (fun body -> body);
  Alcotest.(check bool) "registered" true (Transport.Loopback.registered name);
  Alcotest.(check bool) "double registration rejected" true
    (try
       Transport.Loopback.register name (fun b -> b);
       false
     with Invalid_argument _ -> true);
  Transport.Loopback.unregister name;
  Alcotest.(check bool) "unregistered" false
    (Transport.Loopback.registered name);
  match Transport.connect (Transport.Memory name) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "connect to unregistered name must fail"

(* -- Server + Client over loopback ---------------------------------------- *)

let test_loopback_service () =
  with_server @@ fun service ep ->
  let c = ok_client (Client.connect ep) in
  ok_client (Client.ping c);
  Alcotest.(check (float 0.0)) "empty estimator" 0.0 (ok_client (Client.global c));
  let after = ok_client (Client.publish c ~node:2 7.5) in
  Alcotest.(check (float 0.0)) "publish returns new global" 7.5 after;
  Alcotest.(check (float 0.0)) "read back" 7.5
    (ok_client (Client.read_node c 2));
  let stats = ok_client (Client.stats c) in
  Alcotest.(check int) "publishes counted" 1 stats.Wire.publishes;
  Alcotest.(check int) "requests counted" 5 stats.Wire.served;
  (* out-of-range node: typed remote error, service keeps going *)
  (match Client.publish c ~node:99 1.0 with
  | Error (Client.Remote _) -> ()
  | _ -> Alcotest.fail "expected Remote error");
  ok_client (Client.ping c);
  Client.close c;
  (match Client.ping c with
  | Error Client.Closed -> ()
  | _ -> Alcotest.fail "expected Closed");
  ignore service

let test_loopback_decide_matches_alg2 () =
  with_server @@ fun _service ep ->
  let c = ok_client (Client.connect ep) in
  ignore (ok_client (Client.publish c ~node:0 123.0));
  let candidates =
    [
      (Tag.make Tag_type.Network 1, 5);
      (Tag.make Tag_type.File 2, 17);
      (Tag.make Tag_type.Export_table 3, 2);
    ]
  in
  let req = { Wire.space = 2; pollution = 10.0; candidates } in
  let outcomes = ok_client (Client.decide c [ req; req ]) in
  Alcotest.(check int) "one outcome list per request" 2 (List.length outcomes);
  let expected =
    let count tag =
      match List.find_opt (fun (t, _) -> Tag.equal t tag) candidates with
      | Some (_, n) -> n
      | None -> 0
    in
    (* the server adds its estimator's global to the request's local
       pollution *)
    Mitos.Decision.alg2 params
      { Mitos.Decision.count; pollution = 10.0 +. 123.0 }
      ~space:2 (List.map fst candidates)
  in
  List.iter
    (fun outcome ->
      List.iter2
        (fun (got : Wire.decided) (want : Mitos.Decision.ranked) ->
          Alcotest.(check bool) "same tag" true (Tag.equal got.tag want.tag);
          Alcotest.(check (float 0.0)) "same marginal" want.marginal
            got.marginal;
          Alcotest.(check bool) "same verdict" true
            (got.verdict = want.verdict))
        outcome expected)
    outcomes;
  Client.close c

(* The server reads a tag's count from its first listing, as
   [Decision.alg2] over a first-match lookup does, on a short request
   and on a long one. *)
let test_decide_counts_first_listing () =
  with_server @@ fun _service ep ->
  let c = ok_client (Client.connect ep) in
  let dup = Tag.make Tag_type.Network 1 in
  let short = [ (dup, 5); (Tag.make Tag_type.File 2, 17); (dup, 40) ] in
  let long =
    (dup, 3)
    :: List.init 30 (fun i -> (Tag.make Tag_type.File (100 + i), i))
    @ [ (dup, 60) ]
  in
  let expected candidates =
    let count tag =
      match List.find_opt (fun (t, _) -> Tag.equal t tag) candidates with
      | Some (_, n) -> n
      | None -> 0
    in
    Mitos.Decision.alg2 params
      { Mitos.Decision.count; pollution = 10.0 }
      ~space:2 (List.map fst candidates)
  in
  let same (got : Wire.decided) (want : Mitos.Decision.ranked) =
    Tag.equal got.tag want.tag
    && Int64.equal (Int64.bits_of_float got.marginal)
         (Int64.bits_of_float want.marginal)
    && got.verdict = want.verdict
  in
  let reqs =
    List.map
      (fun candidates -> { Wire.space = 2; pollution = 10.0; candidates })
      [ short; long ]
  in
  (match ok_client (Client.decide c reqs) with
  | [ got_short; got_long ] ->
    Alcotest.(check bool) "short request" true
      (List.equal same got_short (expected short));
    Alcotest.(check bool) "long request" true
      (List.equal same got_long (expected long))
  | _ -> Alcotest.fail "one outcome list per request");
  Client.close c

let test_malformed_body_gets_err_response () =
  with_server @@ fun service ep ->
  ignore service;
  let conn =
    match Transport.connect ep with
    | Ok c -> c
    | Error msg -> Alcotest.fail msg
  in
  (match Transport.send conn "\xde\xad\xbe\xef" with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  (match Transport.recv conn with
  | Ok body -> (
    match Wire.decode_response body with
    | Ok (0, Wire.Err _) -> ()
    | _ -> Alcotest.fail "expected Err response with id 0")
  | Error _ -> Alcotest.fail "expected a response body");
  Transport.close conn

(* -- Client retry --------------------------------------------------------- *)

let test_backoff_schedule () =
  Alcotest.(check (list (float 1e-12)))
    "deterministic exponential" [ 0.05; 0.1; 0.2 ]
    (Client.backoff_schedule ~retries:3 ~backoff:0.05);
  Alcotest.(check (list (float 1e-12)))
    "empty for zero retries" []
    (Client.backoff_schedule ~retries:0 ~backoff:0.05)

let test_retry_then_succeed () =
  let name = fresh_name "flaky" in
  let failures_left = ref 2 in
  Transport.Loopback.register name (fun body ->
      if !failures_left > 0 then begin
        decr failures_left;
        failwith "injected fault"
      end
      else
        match Wire.decode_request body with
        | Ok (id, _, Wire.Ping) -> Wire.encode_response_body ~id Wire.Pong
        | _ -> Wire.encode_response_body ~id:0 (Wire.Err "unexpected"));
  Fun.protect
    ~finally:(fun () -> Transport.Loopback.unregister name)
    (fun () ->
      let c = ok_client (Client.connect ~retries:3 (Transport.Memory name)) in
      ok_client (Client.ping c);
      Alcotest.(check int) "two retries spent" 2 (Client.retries_used c);
      Client.close c)

let test_retries_exhausted () =
  let name = fresh_name "dead" in
  Transport.Loopback.register name (fun _ -> failwith "always down");
  Fun.protect
    ~finally:(fun () -> Transport.Loopback.unregister name)
    (fun () ->
      let c = ok_client (Client.connect ~retries:2 (Transport.Memory name)) in
      (match Client.ping c with
      | Error (Client.Retries_exhausted { attempts; _ }) ->
        Alcotest.(check int) "first try + 2 retries" 3 attempts
      | Error err -> Alcotest.fail (Client.error_to_string err)
      | Ok () -> Alcotest.fail "ping cannot succeed");
      Client.close c)

let test_connect_refused () =
  match Client.connect (Transport.Tcp { host = "127.0.0.1"; port = 1 }) with
  | Error (Client.Connect _) -> ()
  | Error err -> Alcotest.fail (Client.error_to_string err)
  | Ok _ -> Alcotest.fail "connect to port 1 must fail"

(* -- Server + Client over TCP --------------------------------------------- *)

let test_tcp_service () =
  let config = { Server.default_config with workers = 2; read_timeout = 2.0 } in
  let service = Server.create ~config ~params () in
  let listener =
    Server.start service (Transport.Tcp { host = "127.0.0.1"; port = 0 })
  in
  Fun.protect
    ~finally:(fun () -> Server.stop listener)
    (fun () ->
      let ep = Server.endpoint listener in
      (match ep with
      | Transport.Tcp { port; _ } ->
        Alcotest.(check bool) "kernel picked a port" true (port > 0)
      | _ -> Alcotest.fail "expected a TCP endpoint");
      (* two concurrent clients on the worker pool *)
      let c1 = ok_client (Client.connect ~timeout:2.0 ep) in
      let c2 = ok_client (Client.connect ~timeout:2.0 ep) in
      ok_client (Client.ping c1);
      ok_client (Client.ping c2);
      ignore (ok_client (Client.publish c1 ~node:0 3.0));
      Alcotest.(check (float 0.0)) "estimator shared across connections" 3.0
        (ok_client (Client.global c2));
      let outcomes =
        ok_client
          (Client.decide c2
             [
               {
                 Wire.space = 1;
                 pollution = 0.0;
                 candidates = [ (Tag.make Tag_type.Network 1, 3) ];
               };
             ])
      in
      Alcotest.(check int) "decided" 1 (List.length outcomes);
      (* a ~100 KB request frame spans several reads and is assembled
         whole *)
      let wide =
        List.init 2000 (fun r ->
            {
              Wire.space = 1;
              pollution = 0.0;
              candidates =
                List.init 10 (fun i ->
                    (Tag.make Tag_type.Network ((r * 10) + i), 1));
            })
      in
      Alcotest.(check int) "one decision list per request" 2000
        (List.length (ok_client (Client.decide c1 wide)));
      Client.close c1;
      Client.close c2)

(* -- Adversarial frames mid-stream on an established connection ----------- *)

let raw_conn ep =
  match Transport.connect ~timeout:2.0 ep with
  | Ok conn -> conn
  | Error msg -> Alcotest.fail msg

let raw_send conn body =
  match Transport.send conn body with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let raw_roundtrip conn request ~id =
  raw_send conn (Wire.encode_request_body ~id request);
  match Transport.recv conn with
  | Error err -> Alcotest.fail (Wire.error_to_string err)
  | Ok body -> (
    match Wire.decode_response body with
    | Ok (got_id, response) ->
      Alcotest.(check int) "reply id" id got_id;
      response
    | Error err -> Alcotest.fail (Wire.error_to_string err))

let test_corrupt_frame_mid_stream () =
  (* a corrupt body on an established connection must get a typed Err
     and leave both that connection and its siblings serving *)
  let config = { Server.default_config with workers = 2; read_timeout = 2.0 } in
  let service = Server.create ~config ~params () in
  let listener =
    Server.start service (Transport.Tcp { host = "127.0.0.1"; port = 0 })
  in
  Fun.protect
    ~finally:(fun () -> Server.stop listener)
    (fun () ->
      let ep = Server.endpoint listener in
      let sibling = ok_client (Client.connect ~timeout:2.0 ep) in
      let conn = raw_conn ep in
      Fun.protect
        ~finally:(fun () ->
          Transport.close conn;
          Client.close sibling)
        (fun () ->
          (* healthy first: the connection is established and serving *)
          (match raw_roundtrip conn Wire.Ping ~id:7 with
          | Wire.Pong -> ()
          | _ -> Alcotest.fail "expected Pong");
          (* mid-stream corruption: well-framed, body version forced
             invalid — the strict decoder must answer, not act *)
          let bad = Bytes.of_string (Wire.encode_request_body ~id:8 Wire.Ping) in
          Bytes.set bad 0 '\xff';
          raw_send conn (Bytes.to_string bad);
          (match Transport.recv conn with
          | Ok body -> (
            match Wire.decode_response body with
            | Ok (0, Wire.Err _) -> ()
            | Ok (id, _) -> Alcotest.failf "want Err with id 0, got id %d" id
            | Error err -> Alcotest.fail (Wire.error_to_string err))
          | Error err -> Alcotest.fail (Wire.error_to_string err));
          (* the poisoned frame must not poison the stream: the SAME
             connection still serves *)
          (match raw_roundtrip conn Wire.Ping ~id:9 with
          | Wire.Pong -> ()
          | _ -> Alcotest.fail "expected Pong after corrupt frame");
          (* and the sibling connection never noticed *)
          ok_client (Client.ping sibling);
          ignore (ok_client (Client.publish sibling ~node:0 2.0));
          Alcotest.(check (float 0.0)) "sibling still consistent" 2.0
            (ok_client (Client.global sibling))))

let test_oversized_frame_hangs_up () =
  (* an announced frame past the server's bound is unrecoverable at
     the framing layer: one typed Err, then hangup — siblings
     unaffected *)
  let config =
    { Server.default_config with
      workers = 2; read_timeout = 2.0; max_frame = 4096 }
  in
  let service = Server.create ~config ~params () in
  let listener =
    Server.start service (Transport.Tcp { host = "127.0.0.1"; port = 0 })
  in
  Fun.protect
    ~finally:(fun () -> Server.stop listener)
    (fun () ->
      let ep = Server.endpoint listener in
      let sibling = ok_client (Client.connect ~timeout:2.0 ep) in
      let conn = raw_conn ep in
      Fun.protect
        ~finally:(fun () ->
          Transport.close conn;
          Client.close sibling)
        (fun () ->
          (match raw_roundtrip conn Wire.Ping ~id:1 with
          | Wire.Pong -> ()
          | _ -> Alcotest.fail "expected Pong");
          raw_send conn (String.make 5000 'x');
          (match Transport.recv conn with
          | Ok body -> (
            match Wire.decode_response body with
            | Ok (0, Wire.Err _) -> ()
            | Ok _ -> Alcotest.fail "want a typed Err before hangup"
            | Error err -> Alcotest.fail (Wire.error_to_string err))
          | Error err -> Alcotest.fail (Wire.error_to_string err));
          (* the server hung up: the next read finds a closed stream *)
          (match Transport.recv conn with
          | Error _ -> ()
          | Ok _ -> Alcotest.fail "server must hang up after oversize");
          (* the sibling's connection survived its neighbour's demise *)
          ok_client (Client.ping sibling)))

(* -- One readiness loop: idle sockets, stop, backpressure ------------------ *)

let with_tcp_server ?registry config f =
  let service = Server.create ~config ?registry ~params () in
  let listener =
    Server.start service (Transport.Tcp { host = "127.0.0.1"; port = 0 })
  in
  Fun.protect ~finally:(fun () -> Server.stop listener) (fun () -> f listener)

(* Connected sockets that never send a byte. *)
let idle_sockets ep n =
  match ep with
  | Transport.Tcp { host; port } ->
    let fds =
      List.init n (fun _ ->
          match Netio.connect_tcp ~host ~port () with
          | Ok fd -> fd
          | Error msg -> Alcotest.fail msg)
    in
    (* let the server take them before the measured client arrives *)
    Unix.sleepf 0.05;
    fds
  | _ -> Alcotest.fail "expected a TCP endpoint"

let timed f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

let check_within what limit took =
  Alcotest.(check bool)
    (Printf.sprintf "%s within %.1f s (took %.3f s)" what limit took)
    true (took < limit)

(* Candidate ids a client chooses cannot make the server's count
   lookup quadratic: ids that are all multiples of 2^20 share their
   low bits, which put every candidate of a hashed lookup in one
   bucket (45,000 of them took seconds). The outcome must still be
   [Decision.alg2]'s. *)
let test_decide_hostile_ids () =
  with_server @@ fun _service ep ->
  let c = ok_client (Client.connect ep) in
  let candidates =
    List.init 45_000 (fun i -> (Tag.make Tag_type.File ((i + 1) lsl 20), 1))
  in
  let req = { Wire.space = 2; pollution = 10.0; candidates } in
  let got = ref [] in
  let took = timed (fun () -> got := ok_client (Client.decide c [ req ])) in
  check_within "45,000 candidates with ids in one bucket" 1.0 took;
  let want =
    Mitos.Decision.alg2 params
      { Mitos.Decision.count = (fun _ -> 1); pollution = 10.0 }
      ~space:2 (List.map fst candidates)
  in
  (match !got with
  | [ outcome ] ->
    Alcotest.(check bool) "same outcome as alg2" true
      (List.equal
         (fun (a : Wire.decided) (b : Mitos.Decision.ranked) ->
           Tag.equal a.tag b.tag
           && Int64.equal (Int64.bits_of_float a.marginal)
                (Int64.bits_of_float b.marginal)
           && a.verdict = b.verdict)
         outcome want)
  | _ -> Alcotest.fail "one outcome list per request");
  Client.close c

(* -- the server's decide path against the specification -------------------- *)

(* The reply the specification gives for a request body: the list
   decoder, then each request decided by [Decision.alg2] with a tag's
   count taken from its first listing and the estimator's global added
   to the request's pollution. [None] for a body that decodes to
   anything but a Decide. *)
let spec_reply service body =
  match Wire.decode_request body with
  | Error err ->
    Some (Wire.encode_response_body ~id:0 (Err (Wire.error_to_string err)))
  | Ok (id, _, Decide batch) ->
    let global = Mitos_distrib.Estimator.global (Server.estimator service) in
    let decide (req : Wire.decide_request) =
      let count tag =
        match List.find_opt (fun (t, _) -> Tag.equal t tag) req.candidates with
        | Some (_, n) -> n
        | None -> 0
      in
      Mitos.Decision.alg2 params
        { Mitos.Decision.count; pollution = req.pollution +. global }
        ~space:req.space (List.map fst req.candidates)
    in
    let resp =
      match List.map decide batch with
      | outcomes -> Wire.Decisions outcomes
      | exception exn -> Wire.Err ("internal error: " ^ Printexc.to_string exn)
    in
    Some (Wire.encode_response_body ~id resp)
  | Ok _ -> None

(* Requests of 0-40 listings drawn from few tags, so many repeat, with
   ids that are small, multiples of 2^20 or anywhere, and space
   0..n+1. *)
let gen_spec_request =
  QCheck.Gen.(
    let id =
      oneof
        [ int_bound 3; map (fun i -> i lsl 20) (int_bound 3); int_bound 100_000 ]
    in
    let tag = map2 Tag.make (oneofl Tag_type.all) id in
    list_size (0 -- 40) (pair tag (oneof [ return 0; int_bound 1000 ]))
    >>= fun candidates ->
    map2
      (fun space pollution -> { Wire.space; pollution; candidates })
      (0 -- (List.length candidates + 1))
      (oneof
         [ return 0.0; float_range (-500.0) 0.0; float_range 0.0 3000.0 ]))

let gen_decide_body =
  QCheck.Gen.(
    map3
      (fun id trace batch ->
        Wire.encode_request_body ?trace ~id (Wire.Decide batch))
      (int_bound 100_000) (opt gen_trace)
      (list_size (0 -- 4) gen_spec_request))

let qcheck_decide_reply_is_spec =
  QCheck.Test.make ~name:"decide reply = alg2's, byte for byte" ~count:300
    QCheck.(make gen_decide_body)
    (fun body ->
      let service = Server.create ~params () in
      Some (Server.handle_body service body) = spec_reply service body)

(* A Decide body whose one request announces space -1: it decodes, and
   Alg. 2 refuses it. *)
let negative_space_body =
  let e = Mitos_util.Codec.Enc.create () in
  List.iter (Mitos_util.Codec.Enc.uint e) [ 2; 5; 0x02 ];
  Mitos_util.Codec.Enc.bool e false (* no trace *);
  Mitos_util.Codec.Enc.uint e 1;
  Mitos_util.Codec.Enc.contents e
  ^ "\xff\xff\xff\xff\xff\xff\xff\xff\x7f"
  ^ String.make 8 '\000' ^ "\x01\x00\x07\x03"

(* Every strict prefix of a decide body, the body with 1-4 bytes
   flipped and a negative space get the specification's reply: the
   same Err bytes, offset and message included, or the same
   Decisions. *)
let test_decide_malformed_is_spec () =
  let body =
    Wire.encode_request_body ~id:300
      (Wire.Decide
         [
           {
             Wire.space = 2;
             pollution = 12.5;
             candidates =
               [
                 (Tag.make Tag_type.Network 3, 1);
                 (Tag.make Tag_type.File 70_000, 300);
                 (Tag.make Tag_type.Network 3, 9);
               ];
           };
           { Wire.space = 1; pollution = 0.0; candidates = [] };
           {
             Wire.space = 5;
             pollution = 250_000.0;
             candidates = [ (Tag.make Tag_type.File (1 lsl 20), 64) ];
           };
         ])
  in
  let check what body =
    let service = Server.create ~params () in
    match spec_reply service body with
    | None -> ()
    | Some want ->
      Alcotest.(check string) what (hex want)
        (hex (Server.handle_body service body))
  in
  for n = 0 to String.length body - 1 do
    check (Printf.sprintf "prefix %d" n) (String.sub body 0 n)
  done;
  let rng = Random.State.make [| 29 |] in
  for case = 1 to 2000 do
    let b = Bytes.of_string body in
    for _ = 1 to 1 + Random.State.int rng 4 do
      let i = Random.State.int rng (Bytes.length b) in
      let flip = 1 + Random.State.int rng 255 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor flip))
    done;
    check (Printf.sprintf "flips %d" case) (Bytes.to_string b)
  done;
  check "negative space" negative_space_body;
  Alcotest.(check bool) "negative space is an internal error" true
    (match
       Wire.decode_response
         (Server.handle_body (Server.create ~params ()) negative_space_body)
     with
    | Ok (5, Err msg) -> String.starts_with ~prefix:"internal error" msg
    | _ -> false)

(* Loop domains share one server: two domains deciding the same frames
   at once get what one domain alone gets. *)
let test_decide_two_domains () =
  let frames =
    QCheck.Gen.generate ~rand:(Random.State.make [| 7 |]) ~n:300
      gen_decide_body
  in
  let solo = List.map (Server.handle_body (Server.create ~params ())) frames in
  let shared = Server.create ~params () in
  let run () = List.map (Server.handle_body shared) frames in
  let d1 = Domain.spawn run and d2 = Domain.spawn run in
  let r1 = Domain.join d1 and r2 = Domain.join d2 in
  Alcotest.(check bool) "first domain" true (List.equal String.equal solo r1);
  Alcotest.(check bool) "second domain" true (List.equal String.equal solo r2)

(* A warmed server answers a batch-10 frame of 1-6 candidates per
   request, the shape of the decide benchmark, in a bounded number of
   minor words. Measured at 490 words on OCaml 5.1 with the dev
   profile, where the list path took 1,815. *)
let test_decide_frame_allocation () =
  let rng = Random.State.make [| 11 |] in
  let request _ =
    {
      Wire.space = Random.State.int rng 5;
      pollution = Random.State.float rng 1000.0;
      candidates =
        List.init
          (1 + Random.State.int rng 6)
          (fun _ ->
            ( Tag.make
                (List.nth Tag_type.all (Random.State.int rng Tag_type.count))
                (Random.State.int rng 10_000),
              Random.State.int rng 64 ));
    }
  in
  let body =
    Wire.encode_request_body ~id:1 (Wire.Decide (List.init 10 request))
  in
  let service = Server.create ~params () in
  for _ = 1 to 10 do
    ignore (Server.handle_body service body)
  done;
  let frames = 100 in
  let before = Gc.minor_words () in
  for _ = 1 to frames do
    ignore (Server.handle_body service body)
  done;
  let words = (Gc.minor_words () -. before) /. float_of_int frames in
  if words > 700.0 then
    Alcotest.failf "%.1f minor words per batch-10 frame, bound 700" words

let test_poison_frame_keeps_loop () =
  (* one loop domain: a frame that once killed it gets an Err from the
     decoder, not a dropped session, and a fresh client is still
     served *)
  let config = { Server.default_config with workers = 1; read_timeout = 2.0 } in
  let registry = Mitos_obs.Registry.create () in
  let session_errors () =
    let metrics = Mitos_obs.Registry.to_prometheus registry in
    List.find_opt
      (String.starts_with ~prefix:"mitos_net_session_errors_total ")
      (String.split_on_char '\n' metrics)
  in
  with_tcp_server ~registry config (fun listener ->
      Alcotest.(check (option string)) "session errors read 0 at start"
        (Some "mitos_net_session_errors_total 0") (session_errors ());
      let ep = Server.endpoint listener in
      (match ep with
      | Transport.Tcp { host; port } -> (
        match Netio.connect_tcp ~timeout:2.0 ~host ~port () with
        | Error msg -> Alcotest.fail msg
        | Ok fd ->
          Fun.protect
            ~finally:(fun () -> Netio.close_quietly fd)
            (fun () ->
              Netio.write_all fd poison_frame;
              let reply = Bytes.create 256 in
              let n = Unix.read fd reply 0 256 in
              match Wire.decode_response_frame (Bytes.sub_string reply 0 n) with
              | Ok (0, Wire.Err msg) ->
                Alcotest.(check bool) "Err names the corrupt byte" true
                  (String.length msg > 0)
              | _ -> Alcotest.fail "expected one Err frame"))
      | _ -> Alcotest.fail "expected a TCP endpoint");
      let c = ok_client (Client.connect ~timeout:2.0 ep) in
      Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
          ok_client (Client.ping c));
      Alcotest.(check (option string)) "no session dropped"
        (Some "mitos_net_session_errors_total 0") (session_errors ()))

let test_idle_sockets_do_not_stall () =
  (* more idle sockets than loops: a fresh client is still served at
     once, not after the idle ones time out *)
  let config = { Server.default_config with workers = 2; read_timeout = 2.0 } in
  with_tcp_server config (fun listener ->
      let ep = Server.endpoint listener in
      let idle = idle_sockets ep 3 in
      Fun.protect
        ~finally:(fun () -> List.iter Netio.close_quietly idle)
        (fun () ->
          check_within "ping behind 3 idle sockets" 0.5
            (timed (fun () ->
                 let c = ok_client (Client.connect ~timeout:5.0 ep) in
                 ok_client (Client.ping c);
                 Client.close c))))

let test_stop_with_idle_connection () =
  let config = { Server.default_config with workers = 2; read_timeout = 2.0 } in
  let service = Server.create ~config ~params () in
  let listener =
    Server.start service (Transport.Tcp { host = "127.0.0.1"; port = 0 })
  in
  let idle = idle_sockets (Server.endpoint listener) 1 in
  let took = timed (fun () -> Server.stop listener) in
  List.iter Netio.close_quietly idle;
  check_within "stop beside an idle connection" 0.5 took

let test_timeout_err_then_hangup () =
  (* one timeout for a silent connection and for one that trickles a
     frame byte by byte: each gets one Err frame, then a hang-up *)
  let config = { Server.default_config with workers = 1; read_timeout = 0.5 } in
  with_tcp_server config (fun listener ->
      let ep = Server.endpoint listener in
      let expect_timeout_err fd =
        match Wire.decode_response_frame (Netio.read_to_eof fd) with
        | Ok (0, Wire.Err msg) ->
          Alcotest.(check string) "timeout error"
            "corrupt frame at byte 0: read timeout" msg
        | Ok _ -> Alcotest.fail "want one Err frame with id 0"
        | Error err -> Alcotest.fail (Wire.error_to_string err)
      in
      let silent, trickle =
        match idle_sockets ep 2 with
        | [ a; b ] -> (a, b)
        | _ -> assert false
      in
      Fun.protect
        ~finally:(fun () -> List.iter Netio.close_quietly [ silent; trickle ])
        (fun () ->
          (* a 100-byte frame, one byte per 0.1 s, until the server
             speaks; it must not wait for the frame to finish *)
          Netio.write_all trickle "\x64";
          let took =
            timed (fun () ->
                let rec drip n =
                  if n > 0 then
                    match Unix.select [ trickle ] [] [] 0.1 with
                    | [], _, _ ->
                      Netio.write_all trickle "x";
                      drip (n - 1)
                    | _ -> ()
                in
                drip 30)
          in
          check_within "trickled frame cut off" 1.5 took;
          expect_timeout_err trickle;
          expect_timeout_err silent))

let test_pipelined_backpressure () =
  (* one loop; a client pipelines 50 telemetry queries whose replies
     (~8000 padding series each) overflow the socket buffers, and
     reads none of them. The loop must keep serving a sibling, then
     hand the first client every reply, in order. *)
  let registry = Mitos_obs.Registry.create () in
  for i = 1 to 8000 do
    ignore
      (Mitos_obs.Registry.counter registry ~labels:[ ("pad", string_of_int i) ]
         "test_padding_total")
  done;
  let config = { Server.default_config with workers = 0 } in
  with_tcp_server ~registry config (fun listener ->
      let ep = Server.endpoint listener in
      let conn = raw_conn ep in
      Fun.protect
        ~finally:(fun () -> Transport.close conn)
        (fun () ->
          for id = 1 to 50 do
            raw_send conn (Wire.encode_request_body ~id Wire.Query_telemetry)
          done;
          let sibling = ok_client (Client.connect ~timeout:2.0 ep) in
          ok_client (Client.ping sibling);
          Client.close sibling;
          for id = 1 to 50 do
            match Transport.recv conn with
            | Error err -> Alcotest.fail (Wire.error_to_string err)
            | Ok body -> (
              match Wire.decode_response body with
              | Ok (got, Wire.Telemetry _) ->
                Alcotest.(check int) "replies in id order" id got
              | Ok _ -> Alcotest.fail "expected a Telemetry reply"
              | Error err -> Alcotest.fail (Wire.error_to_string err))
          done))

let test_connect_failure_classification () =
  Alcotest.(check bool) "refused" true
    (Transport.connect_failure "tcp://127.0.0.1:1: refused connection"
    = `Refused);
  Alcotest.(check bool) "loopback refusal" true
    (Transport.connect_failure "no loopback server named \"gone\"" = `Refused);
  Alcotest.(check bool) "timeout" true
    (Transport.connect_failure "connect timed out after 2.0s" = `Timeout);
  Alcotest.(check bool) "read timeout" true
    (Transport.connect_failure "read timeout" = `Timeout);
  Alcotest.(check bool) "unknown" true
    (Transport.connect_failure "network unreachable" = `Unknown);
  (* and the classifier agrees with a real refusal's message *)
  match Client.connect (Transport.Tcp { host = "127.0.0.1"; port = 1 }) with
  | Error (Client.Connect msg) ->
    Alcotest.(check bool) "live refusal classified" true
      (Transport.connect_failure msg = `Refused)
  | Error err -> Alcotest.fail (Client.error_to_string err)
  | Ok _ -> Alcotest.fail "connect to port 1 must fail"

let test_sharded_estimator_service_equivalent () =
  (* a 4-shard server must answer byte-for-byte like the unsharded
     one. Publishes are integer-valued, so the per-shard partial sums
     are exact in float arithmetic and the shard-grouped fold cannot
     differ from the flat one even bitwise. *)
  let run ~shards =
    with_server
      ~config:
        { Server.default_config with
          nodes = 8; workers = 0; estimator_shards = shards }
      (fun _service ep ->
        let c = ok_client (Client.connect ep) in
        Fun.protect
          ~finally:(fun () -> Client.close c)
          (fun () ->
            let after_each =
              List.map
                (fun node ->
                  ok_client
                    (Client.publish c ~node (float_of_int ((node * 3) + 1))))
                [ 0; 1; 2; 3; 4; 5; 6; 7 ]
            in
            (* overwrites, including back to zero *)
            let g2 = ok_client (Client.publish c ~node:2 10.0) in
            let g5 = ok_client (Client.publish c ~node:5 0.0) in
            let g = ok_client (Client.global c) in
            let node3 = ok_client (Client.read_node c 3) in
            let outcomes =
              ok_client
                (Client.decide c
                   [
                     {
                       Wire.space = 2;
                       pollution = g;
                       candidates =
                         [
                           (Tag.make Tag_type.Network 1, 3);
                           (Tag.make Tag_type.File 2, 1);
                         ];
                     };
                   ])
            in
            (after_each, g2, g5, g, node3, outcomes)))
  in
  let a1, g2a, g5a, ga, n3a, o1 = run ~shards:1 in
  let a4, g2b, g5b, gb, n3b, o4 = run ~shards:4 in
  Alcotest.(check (list (float 0.0))) "running globals identical" a1 a4;
  Alcotest.(check (float 0.0)) "overwrite global identical" g2a g2b;
  Alcotest.(check (float 0.0)) "zeroing global identical" g5a g5b;
  Alcotest.(check (float 0.0)) "final global identical" ga gb;
  Alcotest.(check (float 0.0)) "per-node read identical" n3a n3b;
  Alcotest.(check bool) "decisions identical" true (o1 = o4)

let test_server_rejects_bad_shards () =
  Alcotest.(check bool) "zero estimator shards rejected" true
    (try
       ignore
         (Server.create
            ~config:{ Server.default_config with estimator_shards = 0 }
            ~params ());
       false
     with Invalid_argument _ -> true)

(* -- Executor -------------------------------------------------------------- *)

let test_executor_inline () =
  let e = Executor.create ~workers:0 () in
  let hits = ref 0 in
  Executor.submit e (fun () -> incr hits);
  Alcotest.(check int) "inline task ran synchronously" 1 !hits;
  Executor.submit e (fun () -> failwith "boom");
  Alcotest.(check int) "failure contained and counted" 1 (Executor.failures e);
  Executor.shutdown e;
  Alcotest.(check bool) "submit after shutdown rejected" true
    (try
       Executor.submit e (fun () -> ());
       false
     with Invalid_argument _ -> true)

let test_executor_parallel_drain () =
  let e = Executor.create ~workers:2 () in
  let hits = Atomic.make 0 in
  for _ = 1 to 100 do
    Executor.submit e (fun () -> Atomic.incr hits)
  done;
  Executor.shutdown e;
  Alcotest.(check int) "all tasks ran before join" 100 (Atomic.get hits);
  Alcotest.(check int) "nothing left queued" 0 (Executor.pending e)

(* -- Netcluster ------------------------------------------------------------ *)

let small_nodes n =
  List.init n (fun i -> W.Netbench.build ~seed:(50 + i) ~chunks:6 ())

let run_report c =
  let rounds = Cluster.run c in
  Cluster.report ~rounds c

let run_net_report t =
  Fun.protect
    ~finally:(fun () -> Netcluster.close t)
    (fun () -> run_report (Netcluster.cluster t))

let test_netcluster_byte_identical_to_cluster () =
  let sync_period = 16 in
  let inproc =
    run_report (Cluster.create ~params ~sync_period (small_nodes 3))
  in
  let looped =
    with_server
      ~config:{ Server.default_config with nodes = 3; workers = 0 }
      (fun _service ep ->
        run_net_report
          (Netcluster.create ~params ~sync_period ~endpoint:ep
             (small_nodes 3)))
  in
  Alcotest.(check string) "loopback report byte-identical" inproc looped

let test_netcluster_validation () =
  with_server @@ fun _service ep ->
  Alcotest.(check bool) "empty nodes" true
    (try
       ignore (Netcluster.create ~params ~sync_period:1 ~endpoint:ep []);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad period" true
    (try
       ignore
         (Netcluster.create ~params ~sync_period:0 ~endpoint:ep
            (small_nodes 1));
       false
     with Invalid_argument _ -> true)

(* what `mitos-cli node --index 2` does: one node publishing to slot 2
   of a shared coordinator, leaving the other slots alone *)
let test_netcluster_index_base () =
  with_server
    ~config:{ Server.default_config with nodes = 4; workers = 0 }
    (fun service ep ->
      let report =
        run_net_report
          (Netcluster.create ~index_base:2 ~params ~sync_period:16
             ~endpoint:ep (small_nodes 1))
      in
      let est = Server.estimator service in
      List.iter
        (fun slot ->
          Alcotest.(check bool)
            (Printf.sprintf "slot %d published iff it is slot 2" slot)
            (slot = 2)
            (Mitos_distrib.Estimator.contribution est ~node:slot <> 0.0))
        [ 0; 1; 2; 3 ];
      match String.split_on_char '\n' report with
      | _ :: _ :: _ :: row :: _ ->
        Alcotest.(check bool) "report row names slot 2" true
          (String.starts_with ~prefix:"node 2: " row)
      | _ -> Alcotest.failf "unexpected report:\n%s" report)

(* -- Cluster report pins ---------------------------------------------------

   Rendered reports for a fixed 3-node cluster across sync periods and
   estimator shard counts, in-process and over a mem:// decision
   server. Each pair must match, and each must match the golden text
   recorded before the in-process and wire-backed run loops were
   merged into one. *)

let pin_params = Mitos_experiments.Calib.sensitivity_params ~tau:0.03 ()

let pin_inprocess ~sync_period ~shards =
  run_report
    (Cluster.create ~shards ~params:pin_params ~sync_period (small_nodes 3))

let pin_loopback ~sync_period ~shards =
  with_server
    ~config:
      { Server.default_config with
        nodes = 3; workers = 0; estimator_shards = shards }
    (fun _service ep ->
      run_net_report
        (Netcluster.create ~params:pin_params ~sync_period ~endpoint:ep
           (small_nodes 3)))

let cluster_pins =
  [
    ( 1,
      1,
      "cluster: nodes=3 sync_period=1 rounds=20813\n\
       ifp: propagated=4420 blocked=2486\n\
       sync: publishes=62403 mean_staleness_pct=0 global=1734\n\
       node 0: steps=20801 propagated=1499 blocked=804 pollution=578\n\
       node 1: steps=20812 propagated=1460 blocked=854 pollution=578\n\
       node 2: steps=20787 propagated=1461 blocked=828 pollution=578\n" );
    ( 1,
      4,
      "cluster: nodes=3 sync_period=1 rounds=20813\n\
       ifp: propagated=4420 blocked=2486\n\
       sync: publishes=62403 mean_staleness_pct=0 global=1734\n\
       node 0: steps=20801 propagated=1499 blocked=804 pollution=578\n\
       node 1: steps=20812 propagated=1460 blocked=854 pollution=578\n\
       node 2: steps=20787 propagated=1461 blocked=828 pollution=578\n" );
    ( 16,
      1,
      "cluster: nodes=3 sync_period=16 rounds=20813\n\
       ifp: propagated=4371 blocked=2535\n\
       sync: publishes=3902 mean_staleness_pct=0.0628514364 global=1734\n\
       node 0: steps=20801 propagated=1468 blocked=835 pollution=578\n\
       node 1: steps=20812 propagated=1451 blocked=863 pollution=578\n\
       node 2: steps=20787 propagated=1452 blocked=837 pollution=578\n" );
    ( 16,
      4,
      "cluster: nodes=3 sync_period=16 rounds=20813\n\
       ifp: propagated=4371 blocked=2535\n\
       sync: publishes=3902 mean_staleness_pct=0.0628514364 global=1734\n\
       node 0: steps=20801 propagated=1468 blocked=835 pollution=578\n\
       node 1: steps=20812 propagated=1451 blocked=863 pollution=578\n\
       node 2: steps=20787 propagated=1452 blocked=837 pollution=578\n" );
    ( 97,
      1,
      "cluster: nodes=3 sync_period=97 rounds=20813\n\
       ifp: propagated=4369 blocked=2537\n\
       sync: publishes=645 mean_staleness_pct=0 global=1734\n\
       node 0: steps=20801 propagated=1470 blocked=833 pollution=578\n\
       node 1: steps=20812 propagated=1449 blocked=865 pollution=578\n\
       node 2: steps=20787 propagated=1450 blocked=839 pollution=578\n" );
    ( 97,
      4,
      "cluster: nodes=3 sync_period=97 rounds=20813\n\
       ifp: propagated=4369 blocked=2537\n\
       sync: publishes=645 mean_staleness_pct=0 global=1734\n\
       node 0: steps=20801 propagated=1470 blocked=833 pollution=578\n\
       node 1: steps=20812 propagated=1449 blocked=865 pollution=578\n\
       node 2: steps=20787 propagated=1450 blocked=839 pollution=578\n" );
  ]

let test_cluster_pin (sync_period, shards, golden) () =
  let inproc = pin_inprocess ~sync_period ~shards in
  let looped = pin_loopback ~sync_period ~shards in
  Alcotest.(check string) "loopback matches in-process" inproc looped;
  Alcotest.(check string) "matches the golden report" golden inproc

(* -- Loadgen --------------------------------------------------------------- *)

let loadgen_config =
  {
    Loadgen.default_config with
    Loadgen.requests = 200;
    batch = 5;
    publish_every = 50;
  }

(* the request stream is a pure function of the seed: two fresh
   servers observe identical served/decided/published state *)
let test_loadgen_deterministic_stream () =
  let observe () =
    with_server @@ fun _service ep ->
    (match Loadgen.run ~config:loadgen_config ep with
    | Ok r ->
      Alcotest.(check int) "every decide answered" (200 * 5) r.Loadgen.decisions;
      Alcotest.(check int) "no remote errors" 0 r.Loadgen.remote_errors;
      Alcotest.(check int) "no retries" 0 r.Loadgen.retries
    | Error err -> Alcotest.fail (Client.error_to_string err));
    let c = ok_client (Client.connect ep) in
    let stats = ok_client (Client.stats c) in
    Client.close c;
    (stats.Wire.served, stats.Wire.decided, stats.Wire.publishes,
     stats.Wire.global)
  in
  let s1, d1, p1, g1 = observe () in
  let s2, d2, p2, g2 = observe () in
  Alcotest.(check int) "served equal" s1 s2;
  Alcotest.(check int) "decided equal" d1 d2;
  Alcotest.(check int) "publishes equal" p1 p2;
  Alcotest.(check (float 0.0)) "final global bit-equal" g1 g2

(* the tentpole acceptance check: with propagation on, server decide
   spans carry the trace id the client minted, so /tracez can stitch
   one distributed trace across both processes *)
let test_loadgen_trace_propagation_stitches () =
  let obs_server =
    Mitos_obs.Obs.create ~clock:(Mitos_obs.Obs_clock.real ()) ()
  in
  let service = Server.create ~obs:obs_server ~params () in
  let listener =
    Server.start service (Transport.Tcp { host = "127.0.0.1"; port = 0 })
  in
  let obs_client =
    Mitos_obs.Obs.create ~clock:(Mitos_obs.Obs_clock.real ()) ()
  in
  let config =
    { loadgen_config with Loadgen.requests = 100; propagation = true }
  in
  let report =
    Fun.protect
      ~finally:(fun () -> Server.stop listener)
      (fun () ->
        match
          Loadgen.run ~config ~client_timeout:5.0 ~obs:obs_client
            (Server.endpoint listener)
        with
        | Ok r -> r
        | Error err -> Alcotest.fail (Client.error_to_string err))
  in
  let sample =
    match report.Loadgen.trace_id with
    | Some id -> id
    | None -> Alcotest.fail "propagation on but no sample trace id"
  in
  Alcotest.(check bool) "sample id is valid" true
    (Mitos_obs.Propagation.is_valid_trace_id sample);
  (* every server span must carry a client-minted trace id *)
  let stitched = ref 0 and total = ref 0 in
  Array.iter
    (function
      | Mitos_obs.Tracer.Begin { name; args; _ }
        when String.length name >= 7 && String.sub name 0 7 = "server." ->
        incr total;
        if
          List.exists
            (fun (k, v) ->
              k = "trace_id" && Mitos_obs.Propagation.is_valid_trace_id v)
            args
        then incr stitched
      | _ -> ())
    (Mitos_obs.Tracer.events (Mitos_obs.Obs.tracer obs_server));
  Alcotest.(check bool) "server recorded spans" true (!total > 0);
  Alcotest.(check int) "every server span carries a trace id" !total
    !stitched;
  (* the sample id in particular appears on the server side *)
  Alcotest.(check bool) "sample trace id stitches" true
    (let jsonl =
       Mitos_obs.Chrome_trace.to_jsonl (Mitos_obs.Obs.tracer obs_server)
     in
     let n = String.length sample and h = String.length jsonl in
     let rec go i = i + n <= h && (String.sub jsonl i n = sample || go (i + 1)) in
     go 0);
  (* and the render advertises it for /tracez?trace_id= queries *)
  let rendered = Loadgen.render report in
  Alcotest.(check bool) "render prints the sample id" true
    (let needle = "sample trace id" in
     let n = String.length needle and h = String.length rendered in
     let rec go i =
       i + n <= h && (String.sub rendered i n = needle || go (i + 1))
     in
     go 0)

(* propagation must not change what the service computes: same seed,
   same final estimator state with and without it *)
let test_loadgen_propagation_state_identical () =
  let final_global propagation =
    with_server @@ fun _service ep ->
    (match
       Loadgen.run ~config:{ loadgen_config with Loadgen.propagation } ep
     with
    | Ok _ -> ()
    | Error err -> Alcotest.fail (Client.error_to_string err));
    let c = ok_client (Client.connect ep) in
    let stats = ok_client (Client.stats c) in
    Client.close c;
    (stats.Wire.served, stats.Wire.decided, stats.Wire.global)
  in
  let s1, d1, g1 = final_global false in
  let s2, d2, g2 = final_global true in
  Alcotest.(check int) "served equal" s1 s2;
  Alcotest.(check int) "decided equal" d1 d2;
  Alcotest.(check (float 0.0)) "global bit-equal" g1 g2

(* -- Wire + service: telemetry federation -------------------------------- *)

module Snapshot = Mitos_obs.Registry.Snapshot
module Fleet = Mitos_obs.Fleet
module Registry = Mitos_obs.Registry

(* snapshots are generated through a live registry so every row is
   well-formed by construction; equality goes through the canonical
   codec because an empty histogram's min/max are nan *)
let gen_snapshot =
  QCheck.Gen.(
    map3
      (fun adds gauge obs ->
        let reg = Registry.create () in
        List.iteri
          (fun i n ->
            Registry.add
              (Registry.counter reg
                 ~labels:[ ("op", Printf.sprintf "op%d" (i mod 3)) ]
                 "requests_total")
              n)
          adds;
        Registry.set_gauge (Registry.gauge reg "occupancy") gauge;
        let h =
          Registry.histogram reg ~lo:1.0 ~growth:2.0 ~buckets:6 "latency_ns"
        in
        List.iter (Mitos_obs.Histogram.observe h) obs;
        Registry.snapshot reg)
      (list_size (int_bound 5) (int_bound 1000))
      (float_bound_inclusive 1e6)
      (list_size (int_bound 10) (float_bound_inclusive 1e5)))

let gen_telemetry =
  QCheck.Gen.(
    map3
      (fun node healthy snapshot ->
        {
          Wire.node;
          healthy;
          health = (if healthy then "status: ok\n" else "status: breach\n");
          snapshot;
        })
      (string_size (int_bound 12))
      bool gen_snapshot)

let qcheck_telemetry_roundtrip =
  QCheck.Test.make ~name:"telemetry response round-trips" ~count:200
    QCheck.(make gen_telemetry)
    (fun r ->
      match
        Wire.decode_response_frame (Wire.encode_response ~id:5 (Wire.Telemetry r))
      with
      | Ok (5, Wire.Telemetry r') ->
        r'.Wire.node = r.Wire.node
        && r'.Wire.healthy = r.Wire.healthy
        && r'.Wire.health = r.Wire.health
        && Snapshot.encode r'.Wire.snapshot = Snapshot.encode r.Wire.snapshot
      | _ -> false)

let qcheck_telemetry_truncation_typed =
  QCheck.Test.make ~name:"truncated telemetry reply is a typed error"
    ~count:50
    QCheck.(make gen_telemetry)
    (fun r ->
      let frame = Wire.encode_response ~id:5 (Wire.Telemetry r) in
      List.for_all
        (fun len ->
          match Wire.decode_response_frame (String.sub frame 0 len) with
          | Error (Wire.Truncated _) -> true
          | _ -> false)
        (List.init (String.length frame) Fun.id))

let test_telemetry_adversarial () =
  let r =
    {
      Wire.node = "n1";
      healthy = true;
      health = "status: ok\n";
      snapshot =
        (let reg = Registry.create () in
         Registry.add (Registry.counter reg "requests_total") 7;
         let h =
           Registry.histogram reg ~lo:1.0 ~growth:2.0 ~buckets:6 "latency_ns"
         in
         Mitos_obs.Histogram.observe h 3.0;
         Registry.snapshot reg);
    }
  in
  let body = Wire.encode_response_body ~id:3 (Wire.Telemetry r) in
  (* every in-body truncation surfaces as Corrupt (the frame length
     was already validated by unframe at this layer), never a raise *)
  for len = 1 to String.length body - 1 do
    match Wire.decode_response (String.sub body 0 len) with
    | Error (Wire.Corrupt _) -> ()
    | Ok _ when len = String.length body -> ()
    | Ok _ -> Alcotest.fail (Printf.sprintf "truncation at %d decoded" len)
    | Error e ->
      Alcotest.fail
        (Printf.sprintf "truncation at %d: unexpected %s" len
           (Wire.error_to_string e))
  done;
  check_error "trailing garbage" "Corrupt"
    (Wire.decode_response (body ^ "z"));
  (* an oversized frame is refused from the length prefix *)
  check_error "oversized telemetry frame" "Oversized"
    (Wire.decode_response_frame ~max_frame:8
       (Wire.encode_response ~id:3 (Wire.Telemetry r)));
  (* corrupt a value-kind tag: 9 names no instrument kind *)
  let corrupted = Bytes.of_string body in
  let tag_pos =
    (* the first Counter tag byte follows "requests_total" in the
       payload; find the name and skip name/labels/help framing *)
    let rec find i =
      if i + 14 > Bytes.length corrupted then
        Alcotest.fail "counter name not found in payload"
      else if Bytes.sub_string corrupted i 14 = "requests_total" then i + 14
      else find (i + 1)
    in
    (* name, empty label list (1 byte), empty help (1 byte) -> tag *)
    find 0 + 2
  in
  Bytes.set corrupted tag_pos '\x09';
  check_error "unknown value tag" "Corrupt"
    (Wire.decode_response (Bytes.to_string corrupted))

let test_client_telemetry () =
  with_server (fun service endpoint ->
      let client = ok_client (Client.connect endpoint) in
      Fun.protect
        ~finally:(fun () -> Client.close client)
        (fun () ->
          ok_client (Client.ping client);
          let r = ok_client (Client.telemetry client) in
          Alcotest.(check string) "default node id" "node0" r.Wire.node;
          Alcotest.(check bool) "default probe healthy" true r.Wire.healthy;
          let counter_of op snap =
            List.fold_left
              (fun acc (row : Snapshot.row) ->
                match row.Snapshot.value with
                | Snapshot.Counter c
                  when row.Snapshot.name = "mitos_net_requests_total"
                       && List.assoc_opt "op" row.Snapshot.labels = Some op ->
                  acc + c
                | _ -> acc)
              0 snap
          in
          Alcotest.(check int) "ping visible in snapshot" 1
            (counter_of "ping" r.Wire.snapshot);
          (* the snapshot is cut before the telemetry request's own
             metrics are recorded — the property the federation
             byte-identity below rests on *)
          Alcotest.(check int) "snapshot excludes its own request" 0
            (counter_of "telemetry" r.Wire.snapshot);
          let r2 = ok_client (Client.telemetry client) in
          Alcotest.(check int) "previous telemetry request now visible" 1
            (counter_of "telemetry" r2.Wire.snapshot);
          (* a wired health probe reaches the reply *)
          Server.set_health_probe service (fun () ->
              (false, "status: breach (rule x)\n"));
          let r3 = ok_client (Client.telemetry client) in
          Alcotest.(check bool) "probe verdict in reply" false
            r3.Wire.healthy;
          Alcotest.(check string) "probe body in reply"
            "status: breach (rule x)\n" r3.Wire.health))

(* the tentpole's acceptance property: a 3-node mem:// cluster's
   federated snapshot equals the hand-merged per-node snapshots byte
   for byte. mem:// serves on the caller's domain and the telemetry
   reply excludes its own request, so the wire adds nothing. *)
let test_fleet_federation_byte_identity () =
  let mk i =
    let config =
      { Server.default_config with
        Server.node_id = Printf.sprintf "n%d" i }
    in
    let service = Server.create ~config ~params () in
    let name = fresh_name "fed" in
    let listener = Server.start service (Transport.Memory name) in
    (service, name, listener)
  in
  let members = List.init 3 mk in
  Fun.protect
    ~finally:(fun () -> List.iter (fun (_, _, l) -> Server.stop l) members)
    (fun () ->
      (* distinct deterministic traffic per node *)
      List.iteri
        (fun i (_, name, _) ->
          let c = ok_client (Client.connect (Transport.Memory name)) in
          for _ = 1 to (i + 1) * 3 do
            ok_client (Client.ping c)
          done;
          ignore (ok_client (Client.publish c ~node:0 (float_of_int (i + 1))));
          Client.close c)
        members;
      (* direct per-node snapshots, cut before any scrape *)
      let direct =
        List.map (fun (s, _, _) -> Registry.snapshot (Server.registry s))
          members
      in
      let clients =
        List.map
          (fun (_, name, _) ->
            ok_client (Client.connect (Transport.Memory name)))
          members
      in
      Fun.protect
        ~finally:(fun () -> List.iter Client.close clients)
        (fun () ->
          let fleet =
            Fleet.create
              (List.map2
                 (fun (_, name, _) c ->
                   ( name,
                     fun () ->
                       match Client.telemetry c with
                       | Ok r ->
                         Ok
                           {
                             Fleet.node = r.Wire.node;
                             healthy = r.Wire.healthy;
                             health = r.Wire.health;
                             snapshot = r.Wire.snapshot;
                           }
                       | Error e -> Error (Client.error_to_string e) ))
                 members clients)
          in
          Fleet.scrape fleet ~at:1.0;
          let hand =
            Snapshot.merge
              (List.mapi (fun i s -> (Printf.sprintf "n%d" i, s)) direct)
          in
          Alcotest.(check string) "wire merge byte-identical to hand merge"
            (Snapshot.encode hand)
            (Snapshot.encode (Fleet.merged fleet));
          Alcotest.(check string) "prometheus rendering identical"
            (Snapshot.to_prometheus hand)
            (Snapshot.to_prometheus (Fleet.merged fleet));
          Alcotest.(check bool) "fleet healthy" true (Fleet.healthy fleet);
          (* per-node ids came off the wire, not the configured names *)
          Alcotest.(check (list string)) "self-reported ids"
            [ "n0"; "n1"; "n2" ]
            (List.map (fun v -> v.Fleet.node_id) (Fleet.nodes fleet))))

(* a node whose health probe reports a firing burn-rate alert (what
   serve-decisions --burn-slo renders into /healthz) is attributed by
   name in the fleet rollup: the firing line rides the existing
   telemetry reply, no wire-protocol change *)
let test_fleet_alert_attribution_over_wire () =
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    ln = 0 || go 0
  in
  let mk i =
    let config =
      { Server.default_config with
        Server.node_id = Printf.sprintf "n%d" i }
    in
    let service = Server.create ~config ~params () in
    let name = fresh_name "alrt" in
    let listener = Server.start service (Transport.Memory name) in
    (service, name, listener)
  in
  let members = List.init 3 mk in
  Fun.protect
    ~finally:(fun () -> List.iter (fun (_, _, l) -> Server.stop l) members)
    (fun () ->
      (* n1 runs burn-rate rules and has one firing *)
      (match members with
      | [ _; (s1, _, _); _ ] ->
        Server.set_health_probe s1 (fun () ->
            (false, "status: breach\nfiring: hot_path severity=page\n"))
      | _ -> Alcotest.fail "expected three members");
      let clients =
        List.map
          (fun (_, name, _) ->
            ok_client (Client.connect (Transport.Memory name)))
          members
      in
      Fun.protect
        ~finally:(fun () -> List.iter Client.close clients)
        (fun () ->
          let fleet =
            Fleet.create
              (List.map2
                 (fun (_, name, _) c ->
                   ( name,
                     fun () ->
                       match Client.telemetry c with
                       | Ok r ->
                         Ok
                           {
                             Fleet.node = r.Wire.node;
                             healthy = r.Wire.healthy;
                             health = r.Wire.health;
                             snapshot = r.Wire.snapshot;
                           }
                       | Error e -> Error (Client.error_to_string e) ))
                 members clients)
          in
          Fleet.scrape fleet ~at:1.0;
          Alcotest.(check bool) "fleet breached" false (Fleet.healthy fleet);
          (* the firing alert is attributed to n1 and only n1 *)
          Alcotest.(check (list (list string))) "per-node firing sets"
            [ []; [ "hot_path" ]; [] ]
            (List.map
               (fun v -> List.map fst v.Fleet.node_firing)
               (Fleet.nodes fleet));
          let health = Fleet.render_health fleet in
          Alcotest.(check bool) "status line names node + alert" true
            (contains health "status: breach (node n1 alert hot_path)");
          Alcotest.(check bool) "per-node firing line attributed" true
            (contains health "firing: hot_path severity=page node=n1");
          Alcotest.(check bool) "federated gauge labelled with the node" true
            (contains
               (Snapshot.to_prometheus (Fleet.federated fleet))
               "mitos_fleet_alert_firing{alert=\"hot_path\",node=\"n1\"} 2");
          Alcotest.(check bool) "fleet_nodes_firing signal" true
            (List.assoc_opt "fleet_nodes_firing" (Fleet.signals fleet)
            = Some 1.0)))

let () =
  Alcotest.run "mitos_net"
    [
      ( "wire",
        [
          QCheck_alcotest.to_alcotest qcheck_request_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_response_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_truncation_never_raises;
          Alcotest.test_case "oversized" `Quick test_wire_oversized;
          Alcotest.test_case "bad version" `Quick test_wire_bad_version;
          Alcotest.test_case "bad kind" `Quick test_wire_bad_kind;
          Alcotest.test_case "trailing garbage" `Quick
            test_wire_trailing_garbage;
          Alcotest.test_case "golden decide frames" `Quick
            test_wire_golden_decide_frames;
          Alcotest.test_case "long decide lists" `Quick
            test_wire_long_decide_lists;
          Alcotest.test_case "negative string length" `Quick
            test_wire_negative_string_length;
          Alcotest.test_case "unknown tag type" `Quick
            test_wire_unknown_tag_type;
          QCheck_alcotest.to_alcotest qcheck_request_trace_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_v1_frames_decode_under_v2;
          Alcotest.test_case "v1 fixture + v2 trace" `Quick
            test_wire_v1_fixture;
          Alcotest.test_case "error offsets" `Quick test_wire_error_offsets;
          Alcotest.test_case "error offsets pinned" `Quick
            test_wire_error_offsets_pinned;
          QCheck_alcotest.to_alcotest qcheck_telemetry_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_telemetry_truncation_typed;
          Alcotest.test_case "telemetry adversarial" `Quick
            test_telemetry_adversarial;
        ] );
      ( "transport",
        [
          Alcotest.test_case "endpoint strings" `Quick test_endpoint_strings;
          Alcotest.test_case "loopback registry" `Quick test_loopback_registry;
        ] );
      ( "service",
        [
          Alcotest.test_case "loopback service" `Quick test_loopback_service;
          Alcotest.test_case "decide matches alg2" `Quick
            test_loopback_decide_matches_alg2;
          Alcotest.test_case "decide counts: first listing" `Quick
            test_decide_counts_first_listing;
          Alcotest.test_case "decide counts: hostile ids" `Quick
            test_decide_hostile_ids;
          QCheck_alcotest.to_alcotest qcheck_decide_reply_is_spec;
          Alcotest.test_case "decide: malformed frames" `Quick
            test_decide_malformed_is_spec;
          Alcotest.test_case "decide: two domains" `Quick
            test_decide_two_domains;
          Alcotest.test_case "decide: frame allocation" `Quick
            test_decide_frame_allocation;
          Alcotest.test_case "malformed body -> Err" `Quick
            test_malformed_body_gets_err_response;
          Alcotest.test_case "tcp service" `Quick test_tcp_service;
          Alcotest.test_case "corrupt frame mid-stream" `Quick
            test_corrupt_frame_mid_stream;
          Alcotest.test_case "poison frame keeps the loop" `Quick
            test_poison_frame_keeps_loop;
          Alcotest.test_case "oversized frame hangs up" `Quick
            test_oversized_frame_hangs_up;
          Alcotest.test_case "idle sockets do not stall" `Quick
            test_idle_sockets_do_not_stall;
          Alcotest.test_case "stop beside an idle connection" `Quick
            test_stop_with_idle_connection;
          Alcotest.test_case "pipelined backpressure" `Quick
            test_pipelined_backpressure;
          Alcotest.test_case "timeout: Err then hang-up" `Quick
            test_timeout_err_then_hangup;
          Alcotest.test_case "connect failure classification" `Quick
            test_connect_failure_classification;
          Alcotest.test_case "sharded estimator equivalent" `Quick
            test_sharded_estimator_service_equivalent;
          Alcotest.test_case "bad shard count rejected" `Quick
            test_server_rejects_bad_shards;
          Alcotest.test_case "client telemetry" `Quick test_client_telemetry;
          Alcotest.test_case "fleet federation byte identity" `Quick
            test_fleet_federation_byte_identity;
          Alcotest.test_case "fleet alert attribution over wire" `Quick
            test_fleet_alert_attribution_over_wire;
        ] );
      ( "client",
        [
          Alcotest.test_case "backoff schedule" `Quick test_backoff_schedule;
          Alcotest.test_case "retry then succeed" `Quick test_retry_then_succeed;
          Alcotest.test_case "retries exhausted" `Quick test_retries_exhausted;
          Alcotest.test_case "connect refused" `Quick test_connect_refused;
        ] );
      ( "executor",
        [
          Alcotest.test_case "inline" `Quick test_executor_inline;
          Alcotest.test_case "parallel drain" `Quick
            test_executor_parallel_drain;
        ] );
      ( "netcluster",
        [
          Alcotest.test_case "byte-identical to in-process" `Quick
            test_netcluster_byte_identical_to_cluster;
          Alcotest.test_case "validation" `Quick test_netcluster_validation;
          Alcotest.test_case "index_base picks the slots" `Quick
            test_netcluster_index_base;
        ] );
      ( "pins",
        List.map
          (fun ((sync_period, shards, _) as pin) ->
            Alcotest.test_case
              (Printf.sprintf "sync=%d shards=%d" sync_period shards)
              `Quick (test_cluster_pin pin))
          cluster_pins );
      ( "loadgen",
        [
          Alcotest.test_case "deterministic stream" `Quick
            test_loadgen_deterministic_stream;
          Alcotest.test_case "trace propagation stitches" `Quick
            test_loadgen_trace_propagation_stitches;
          Alcotest.test_case "propagation state-identical" `Quick
            test_loadgen_propagation_state_identical;
        ] );
    ]
