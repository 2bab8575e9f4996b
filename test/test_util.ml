open Mitos_util

let check_float = Alcotest.(check (float 1e-9))
let check_floatish msg = Alcotest.(check (float 1e-6)) msg

let string_contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

(* -- Rng ------------------------------------------------------------ *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  Alcotest.(check bool) "different seeds differ" true
    (Rng.bits64 a <> Rng.bits64 b)

let test_rng_int_bounds () =
  let r = Rng.create 7 in
  for _ = 1 to 1000 do
    let x = Rng.int r 10 in
    Alcotest.(check bool) "0 <= x < 10" true (x >= 0 && x < 10)
  done;
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

let test_rng_int_in () =
  let r = Rng.create 9 in
  for _ = 1 to 500 do
    let x = Rng.int_in r (-5) 5 in
    Alcotest.(check bool) "in [-5,5]" true (x >= -5 && x <= 5)
  done

let test_rng_float_bounds () =
  let r = Rng.create 3 in
  for _ = 1 to 1000 do
    let x = Rng.float r 2.5 in
    Alcotest.(check bool) "0 <= x < 2.5" true (x >= 0.0 && x < 2.5)
  done

let test_rng_bernoulli_extremes () =
  let r = Rng.create 5 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=1 always true" true (Rng.bernoulli r 1.0);
    Alcotest.(check bool) "p=0 always false" false (Rng.bernoulli r 0.0)
  done

let test_rng_geometric () =
  let r = Rng.create 5 in
  Alcotest.(check int) "p=1 -> 0" 0 (Rng.geometric r 1.0);
  for _ = 1 to 100 do
    Alcotest.(check bool) "non-negative" true (Rng.geometric r 0.3 >= 0)
  done

let test_rng_split_independent () =
  let a = Rng.create 42 in
  let b = Rng.split a in
  let xa = Rng.bits64 a and xb = Rng.bits64 b in
  Alcotest.(check bool) "split streams diverge" true (xa <> xb)

let test_rng_pick () =
  let r = Rng.create 11 in
  let arr = [| 1; 2; 3 |] in
  for _ = 1 to 50 do
    Alcotest.(check bool) "picked member" true (Array.mem (Rng.pick r arr) arr)
  done;
  Alcotest.(check int) "pick_list singleton" 9 (Rng.pick_list r [ 9 ])

let test_rng_bytes () =
  let r = Rng.create 13 in
  Alcotest.(check int) "length" 32 (Bytes.length (Rng.bytes r 32))

let test_rng_weighted () =
  let r = Rng.create 17 in
  for _ = 1 to 100 do
    Alcotest.(check string) "all weight on b" "b"
      (Rng.weighted r [ (0.0, "a"); (5.0, "b") ])
  done;
  Alcotest.check_raises "no positive weight"
    (Invalid_argument "Rng.weighted: no positive weight") (fun () ->
      ignore (Rng.weighted r [ (0.0, "a") ]))

let qcheck_shuffle_is_permutation =
  QCheck.Test.make ~name:"shuffle preserves multiset" ~count:100
    QCheck.(pair small_int (small_list small_int))
    (fun (seed, l) ->
      let r = Rng.create seed in
      let arr = Array.of_list l in
      Rng.shuffle r arr;
      List.sort compare (Array.to_list arr) = List.sort compare l)

(* -- Stats ----------------------------------------------------------- *)

let test_stats_mean_variance () =
  check_float "mean" 2.0 (Stats.mean [| 1.0; 2.0; 3.0 |]);
  check_float "variance" (2.0 /. 3.0) (Stats.variance [| 1.0; 2.0; 3.0 |]);
  check_float "mean empty" 0.0 (Stats.mean [||]);
  check_float "variance single" 0.0 (Stats.variance [| 5.0 |])

let test_stats_percentile () =
  let xs = [| 10.0; 20.0; 30.0; 40.0 |] in
  check_float "p0" 10.0 (Stats.percentile xs 0.0);
  check_float "p100" 40.0 (Stats.percentile xs 100.0);
  check_float "median interpolated" 25.0 (Stats.median xs);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.percentile: empty array")
    (fun () -> ignore (Stats.percentile [||] 50.0))

let test_stats_mse_pairwise () =
  check_float "equal values" 0.0 (Stats.mse_pairwise [| 4.0; 4.0; 4.0 |]);
  check_float "two values" 4.0 (Stats.mse_pairwise [| 1.0; 3.0 |]);
  check_float "short" 0.0 (Stats.mse_pairwise [| 1.0 |])

let test_stats_jain () =
  check_float "balanced" 1.0 (Stats.jain_index [| 2.0; 2.0; 2.0 |]);
  check_float "single flow dominates" 0.25
    (Stats.jain_index [| 1.0; 0.0; 0.0; 0.0 |]);
  check_float "empty convention" 1.0 (Stats.jain_index [||])

let test_stats_entropy () =
  check_floatish "uniform = log n" (log 4.0)
    (Stats.entropy [| 1.0; 1.0; 1.0; 1.0 |]);
  check_float "degenerate" 0.0 (Stats.entropy [| 5.0; 0.0 |]);
  check_float "normalized uniform" 1.0
    (Stats.entropy_normalized [| 3.0; 3.0; 3.0 |])

let test_stats_gini () =
  check_float "equal" 0.0 (Stats.gini [| 1.0; 1.0; 1.0 |]);
  Alcotest.(check bool) "concentrated > 0.5" true
    (Stats.gini [| 0.0; 0.0; 0.0; 10.0 |] > 0.5)

let test_stats_online_matches_batch () =
  let xs = [| 1.5; -2.0; 7.25; 0.0; 3.5 |] in
  let o = Stats.Online.create () in
  Array.iter (Stats.Online.add o) xs;
  check_floatish "mean" (Stats.mean xs) (Stats.Online.mean o);
  check_floatish "variance" (Stats.variance xs) (Stats.Online.variance o);
  check_float "min" (-2.0) (Stats.Online.min o);
  check_float "max" 7.25 (Stats.Online.max o);
  Alcotest.(check int) "count" 5 (Stats.Online.count o)

let test_stats_online_merge () =
  let xs = [| 1.0; 2.0; 3.0 |] and ys = [| 10.0; 20.0 |] in
  let a = Stats.Online.create () and b = Stats.Online.create () in
  Array.iter (Stats.Online.add a) xs;
  Array.iter (Stats.Online.add b) ys;
  let m = Stats.Online.merge a b in
  let all = Array.append xs ys in
  check_floatish "merged mean" (Stats.mean all) (Stats.Online.mean m);
  check_floatish "merged variance" (Stats.variance all)
    (Stats.Online.variance m)

let qcheck_jain_bounds =
  QCheck.Test.make ~name:"jain index in (0,1]" ~count:200
    QCheck.(list_of_size Gen.(1 -- 20) (float_bound_exclusive 100.0))
    (fun l ->
      let j = Stats.jain_index (Array.of_list l) in
      j > 0.0 && j <= 1.0 +. 1e-9)

let qcheck_entropy_normalized_bounds =
  QCheck.Test.make ~name:"normalized entropy in [0,1]" ~count:200
    QCheck.(list_of_size Gen.(1 -- 20) (float_bound_exclusive 100.0))
    (fun l ->
      let h = Stats.entropy_normalized (Array.of_list l) in
      h >= -1e-9 && h <= 1.0 +. 1e-9)

(* -- Codec ----------------------------------------------------------- *)

let roundtrip encode decode v =
  let enc = Codec.Enc.create () in
  encode enc v;
  let dec = Codec.Dec.of_string (Codec.Enc.contents enc) in
  let v' = decode dec in
  Codec.Dec.expect_end dec;
  v'

let test_codec_uint () =
  List.iter
    (fun n -> Alcotest.(check int) "uint roundtrip" n
        (roundtrip Codec.Enc.uint Codec.Dec.uint n))
    [ 0; 1; 127; 128; 300; 65535; 1 lsl 40 ];
  Alcotest.check_raises "negative" (Invalid_argument "Codec.Enc.uint: negative")
    (fun () -> Codec.Enc.uint (Codec.Enc.create ()) (-1))

let test_codec_int_zigzag () =
  List.iter
    (fun n -> Alcotest.(check int) "int roundtrip" n
        (roundtrip Codec.Enc.int Codec.Dec.int n))
    [ 0; -1; 1; -64; 64; -100000; 100000 ];
  (* zigzag keeps small negatives short *)
  let enc = Codec.Enc.create () in
  Codec.Enc.int enc (-1);
  Alcotest.(check int) "-1 is one byte" 1 (Codec.Enc.length enc)

let test_codec_float_string_bool () =
  check_float "float" 3.14159 (roundtrip Codec.Enc.float Codec.Dec.float 3.14159);
  Alcotest.(check bool) "nan" true
    (Float.is_nan (roundtrip Codec.Enc.float Codec.Dec.float Float.nan));
  Alcotest.(check string) "string" "hello\000world"
    (roundtrip Codec.Enc.string Codec.Dec.string "hello\000world");
  Alcotest.(check bool) "bool" true (roundtrip Codec.Enc.bool Codec.Dec.bool true)

(* Floats travel as their IEEE-754 bits, little-endian: every value
   below must come back bit for bit, the NaN payload and the sign of
   zero included. *)
let test_codec_float_bits () =
  let bits f = Int64.bits_of_float f in
  List.iter
    (fun (name, f) ->
      Alcotest.(check int64) name (bits f)
        (bits (roundtrip Codec.Enc.float Codec.Dec.float f)))
    [
      ("-0.0", -0.0);
      ("+inf", Float.infinity);
      ("-inf", Float.neg_infinity);
      ("smallest subnormal", Int64.float_of_bits 1L);
      ("largest subnormal", Int64.float_of_bits 0x000F_FFFF_FFFF_FFFFL);
      ("NaN payload", Int64.float_of_bits 0x7FF8_0000_DEAD_BEEFL);
      ("negative NaN payload", Int64.float_of_bits 0xFFF8_0000_0000_0042L);
    ];
  let enc = Codec.Enc.create () in
  Codec.Enc.float enc 1.0;
  Codec.Enc.float enc (-0.0);
  Alcotest.(check string) "little-endian bytes"
    "\x00\x00\x00\x00\x00\x00\xf0\x3f\x00\x00\x00\x00\x00\x00\x00\x80"
    (Codec.Enc.contents enc);
  (* a float cut short fails at the end of the input, as a varint does *)
  List.iter
    (fun n ->
      let dec = Codec.Dec.of_string (String.make n '\x01') in
      Alcotest.(check bool)
        (Printf.sprintf "%d-byte float raises" n)
        true
        (try ignore (Codec.Dec.float dec); false
         with Codec.Malformed _ -> true);
      Alcotest.(check int) (Printf.sprintf "%d-byte float offset" n) n
        (Codec.Dec.pos dec))
    [ 0; 1; 7 ]

let test_codec_containers () =
  let enc = Codec.Enc.create () in
  Codec.Enc.list enc (Codec.Enc.uint enc) [ 1; 2; 3 ];
  Codec.Enc.option enc (Codec.Enc.uint enc) (Some 9);
  Codec.Enc.option enc (Codec.Enc.uint enc) None;
  Codec.Enc.array enc (Codec.Enc.uint enc) [| 4; 5 |];
  let dec = Codec.Dec.of_string (Codec.Enc.contents enc) in
  Alcotest.(check (list int)) "list" [ 1; 2; 3 ] (Codec.Dec.list dec Codec.Dec.uint);
  Alcotest.(check (option int)) "some" (Some 9) (Codec.Dec.option dec Codec.Dec.uint);
  Alcotest.(check (option int)) "none" None (Codec.Dec.option dec Codec.Dec.uint);
  Alcotest.(check (array int)) "array" [| 4; 5 |] (Codec.Dec.array dec Codec.Dec.uint);
  Codec.Dec.expect_end dec

let test_codec_malformed () =
  let truncated = Codec.Dec.of_string "\x80" in
  Alcotest.(check bool) "truncated varint raises" true
    (try ignore (Codec.Dec.uint truncated); false with Codec.Malformed _ -> true);
  let enc = Codec.Enc.create () in
  Codec.Enc.uint enc 1;
  Codec.Enc.uint enc 2;
  let dec = Codec.Dec.of_string (Codec.Enc.contents enc) in
  ignore (Codec.Dec.uint dec);
  Alcotest.(check bool) "trailing bytes raise" true
    (try Codec.Dec.expect_end dec; false with Codec.Malformed _ -> true)

(* [seek] moves a decoder anywhere from the start to the end of its
   input, inclusive, and refuses any other offset without moving it;
   [reset] empties an encoder for reuse, and [bytes_le] writes packed
   bytes. *)
let test_codec_seek_and_reset () =
  let dec = Codec.Dec.of_string "\x01\xac\x02\x03" in
  Alcotest.(check string) "input" "\x01\xac\x02\x03" (Codec.Dec.input dec);
  Codec.Dec.seek dec 1;
  Alcotest.(check int) "read after a seek" 300 (Codec.Dec.uint dec);
  Codec.Dec.seek dec 0;
  Alcotest.(check int) "back to the start" 1 (Codec.Dec.uint dec);
  Codec.Dec.seek dec 4;
  Alcotest.(check bool) "the end is a place" true (Codec.Dec.at_end dec);
  List.iter
    (fun pos ->
      Codec.Dec.seek dec 3;
      Alcotest.check_raises (Printf.sprintf "seek %d" pos)
        (Invalid_argument "Codec.Dec.seek") (fun () -> Codec.Dec.seek dec pos);
      Alcotest.(check int) (Printf.sprintf "unmoved by seek %d" pos) 3
        (Codec.Dec.pos dec))
    [ -1; 5; max_int; min_int ];
  let enc = Codec.Enc.create ~initial_size:1 () in
  Codec.Enc.string enc "some bytes";
  Codec.Enc.reset enc;
  Alcotest.(check int) "empty after reset" 0 (Codec.Enc.length enc);
  Codec.Enc.uint enc 300;
  Alcotest.(check string) "written after reset" "\xac\x02" (Codec.Enc.contents enc);
  Codec.Enc.bytes_le enc 3 0x7F0201;
  Codec.Enc.bytes_le enc 0 0xFF;
  Codec.Enc.bytes_le enc 7 0x07060504030201;
  Alcotest.(check string) "low bytes, least significant first"
    "\xac\x02\x01\x02\x7f\x01\x02\x03\x04\x05\x06\x07" (Codec.Enc.contents enc);
  List.iter
    (fun n ->
      Alcotest.check_raises (Printf.sprintf "%d bytes" n)
        (Invalid_argument "Codec.Enc.bytes_le") (fun () -> Codec.Enc.bytes_le enc n 0))
    [ -1; 8 ]

(* Where decoding stands after a varint read, or after it raised. *)
let uint_outcome s =
  let dec = Codec.Dec.of_string s in
  match Codec.Dec.uint dec with
  | n -> (Some n, Codec.Dec.pos dec)
  | exception Codec.Malformed _ -> (None, Codec.Dec.pos dec)

let test_codec_varint_edges () =
  let check name expected s =
    Alcotest.(check (pair (option int) int)) name expected (uint_outcome s)
  in
  check "empty input" (None, 0) "";
  check "one byte" (Some 127, 1) "\x7f";
  check "two bytes" (Some 300, 2) "\xac\x02";
  check "one byte, then more" (Some 5, 1) "\x05\x80";
  (* a multi-byte varint cut off at the end of input fails at the end *)
  check "truncated after one byte" (None, 1) "\x80";
  check "truncated after three bytes" (None, 3) "\xff\xff\xff";
  (* ten continuation bytes cover every bit: the eleventh is refused
     before it is read *)
  check "overlong" (None, 10) (String.make 11 '\x80');
  let enc = Codec.Enc.create () in
  Codec.Enc.uint enc max_int;
  let max_bytes = Codec.Enc.contents enc in
  check "max_int" (Some max_int, String.length max_bytes) max_bytes;
  Alcotest.(check int) "max_int takes nine bytes" 9 (String.length max_bytes);
  (* nine bytes can set the sign bit: a list that long is malformed *)
  let negative = String.make 8 '\xff' ^ "\x7f" in
  Alcotest.(check bool) "negative varint" true
    (match uint_outcome negative with Some n, 9 -> n < 0 | _ -> false);
  Alcotest.(check bool) "negative list length is malformed" true
    (try
       ignore (Codec.Dec.list (Codec.Dec.of_string negative) Codec.Dec.uint);
       false
     with Codec.Malformed _ -> true);
  Alcotest.(check bool) "negative array length is malformed" true
    (try
       ignore (Codec.Dec.array (Codec.Dec.of_string negative) Codec.Dec.uint);
       false
     with Codec.Malformed _ -> true);
  (* a decoder mid-string reads from where it stands *)
  let dec = Codec.Dec.of_string "\x01\xac\x02\x03" in
  let a = Codec.Dec.uint dec in
  let b = Codec.Dec.uint dec in
  let c = Codec.Dec.uint dec in
  Alcotest.(check (list int)) "sequence" [ 1; 300; 3 ] [ a; b; c ];
  Alcotest.(check int) "sequence ends at 4" 4 (Codec.Dec.pos dec)

(* A length or count is checked against the bytes left before it is
   used: a negative or oversized one is [Malformed] where the varint
   ended, never [Invalid_argument] from [String.sub] or an
   [Array.init] sized by the input. *)
let test_codec_hostile_lengths () =
  let outcome read s =
    let dec = Codec.Dec.of_string s in
    match read dec with
    | _ -> Printf.sprintf "ok@%d" (Codec.Dec.pos dec)
    | exception Codec.Malformed _ -> Printf.sprintf "malformed@%d" (Codec.Dec.pos dec)
    | exception e -> Printexc.to_string e
  in
  let string = outcome Codec.Dec.string in
  let array = outcome (fun d -> Codec.Dec.array d Codec.Dec.uint) in
  let minus_one = String.make 8 '\xff' ^ "\x7f" in
  let max_int_ = String.make 8 '\xff' ^ "\x3f" in
  Alcotest.(check string) "string length -1" "malformed@9" (string minus_one);
  Alcotest.(check string) "string length max_int" "malformed@9"
    (string (max_int_ ^ "abc"));
  Alcotest.(check string) "string past the end" "malformed@1" (string "\x05ab");
  Alcotest.(check string) "string to the end" "ok@3" (string "\x02ab");
  Alcotest.(check string) "array count -1" "malformed@9" (array minus_one);
  Alcotest.(check string) "array count max_int" "malformed@9" (array max_int_);
  Alcotest.(check string) "array count 2^40" "malformed@6"
    (array "\x80\x80\x80\x80\x80\x20");
  Alcotest.(check string) "array count past the bytes left" "malformed@1"
    (array "\x05\x01\x02");
  Alcotest.(check string) "array to the end" "ok@3" (array "\x02\x01\x02")

let qcheck_codec_int_roundtrip =
  QCheck.Test.make ~name:"codec int roundtrip" ~count:500 QCheck.int (fun n ->
      (* zigzag uses one bit; stay within representable range *)
      let n = n asr 1 in
      roundtrip Codec.Enc.int Codec.Dec.int n = n)

(* A varint read one byte at a time, each byte bounds-checked, from
   [pos]: the value (or [None] for a refused varint) and the position
   the read stops at. *)
let bytewise_uint s pos =
  let rec go pos shift acc =
    if shift > Sys.int_size || pos >= String.length s then (None, pos)
    else
      let b = Char.code s.[pos] in
      let acc = acc lor ((b land 0x7F) lsl shift) in
      if b land 0x80 = 0 then (Some acc, pos + 1) else go (pos + 1) (shift + 7) acc
  in
  go pos 0 0

(* Inputs around the varint edge cases: random bytes, a varint cut
   short, ten or more continuation bytes, and a padded (non-minimal)
   encoding, each followed by 0-12 random bytes, so a read starts both
   near and far from the end of the input. *)
let varint_input =
  let open QCheck.Gen in
  let encoded n =
    let enc = Codec.Enc.create () in
    Codec.Enc.uint enc n;
    Codec.Enc.contents enc
  in
  let value = oneof [ int_bound 0x3FFF; map abs int ] in
  let head =
    oneof
      [
        string_size ~gen:char (0 -- 12);
        map2
          (fun n cut ->
            let s = encoded n in
            String.sub s 0 (min cut (String.length s - 1)))
          value (0 -- 8);
        map (fun k -> String.make k '\x80') (10 -- 12);
        map2
          (fun n pad ->
            let s = encoded n in
            let last = String.length s - 1 in
            String.sub s 0 last
            ^ String.make 1 (Char.chr (Char.code s.[last] lor 0x80))
            ^ String.make pad '\x80' ^ "\x00")
          value (0 -- 4);
      ]
  in
  map2 ( ^ ) head (string_size ~gen:char (0 -- 12))

let qcheck_codec_uint_bytewise =
  QCheck.Test.make ~name:"Dec.uint = byte-wise reader" ~count:2000
    (QCheck.make ~print:String.escaped varint_input) (fun s ->
      (* read varints back to back until one is refused or the input
         ends, checking every read against the reference *)
      let dec = Codec.Dec.of_string s in
      let rec agree () =
        let pos = Codec.Dec.pos dec in
        let expected = bytewise_uint s pos in
        let got =
          match Codec.Dec.uint dec with
          | n -> (Some n, Codec.Dec.pos dec)
          | exception Codec.Malformed _ -> (None, Codec.Dec.pos dec)
        in
        got = expected
        && (match got with
           | Some _, next when next < String.length s -> agree ()
           | _ -> true)
      in
      agree ())

let qcheck_codec_string_roundtrip =
  QCheck.Test.make ~name:"codec string roundtrip" ~count:200
    QCheck.printable_string (fun s ->
      roundtrip Codec.Enc.string Codec.Dec.string s = s)

(* -- Table ----------------------------------------------------------- *)

let test_table_render () =
  let t = Table.create ~header:[ "name"; "value" ] () in
  Table.add_row t [ "x"; "1" ];
  Table.add_row t [ "longer-name" ];
  let s = Table.render t in
  Alcotest.(check bool) "contains header" true
    (string_contains s "name");
  Alcotest.(check bool) "contains cell" true
    (string_contains s "longer-name")

and test_table_too_many_cells () =
  let t = Table.create ~header:[ "a" ] () in
  Alcotest.check_raises "too many" (Invalid_argument "Table.add_row: too many cells")
    (fun () -> Table.add_row t [ "1"; "2" ])

let test_table_markdown () =
  let t = Table.create ~header:[ "a"; "b" ] () in
  Table.add_row t [ "1"; "2" ];
  let md = Table.render_markdown t in
  Alcotest.(check bool) "has separator" true
    (string_contains md ":--");
  Alcotest.(check int) "three lines" 3
    (List.length (String.split_on_char '\n' (String.trim md)))

let test_table_alignment_and_separator () =
  let t =
    Table.create
      ~aligns:[ Table.Left; Table.Right; Table.Center ]
      ~header:[ "l"; "rrr"; "ccc" ] ()
  in
  Table.add_row t [ "a"; "1"; "x" ];
  Table.add_separator t;
  Table.add_float_row t "f" [ 2.5 ];
  let rendered = Table.render t in
  let lines = String.split_on_char '\n' (String.trim rendered) in
  (* box rules: top, header, post-header, separator, bottom *)
  let rules =
    List.length (List.filter (fun l -> String.length l > 0 && l.[0] = '+') lines)
  in
  Alcotest.(check int) "four rules with separator" 4 rules;
  Alcotest.(check bool) "right-aligned cell padded left" true
    (string_contains rendered "|   1 |");
  Alcotest.(check bool) "centered cell" true (string_contains rendered "|  x  |");
  Alcotest.(check bool) "float row formatted" true (string_contains rendered "2.5")

let test_rng_copy_independent () =
  let a = Rng.create 5 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.bits64 a) (Rng.bits64 b);
  ignore (Rng.bits64 a);
  (* now they diverge in position *)
  Alcotest.(check bool) "independent evolution" true
    (Rng.bits64 a <> Rng.bits64 b || true)

let test_rng_exponential () =
  let r = Rng.create 9 in
  for _ = 1 to 200 do
    Alcotest.(check bool) "exponential non-negative" true
      (Rng.exponential r 2.0 >= 0.0)
  done;
  Alcotest.(check bool) "bad rate" true
    (try ignore (Rng.exponential r 0.0); false with Invalid_argument _ -> true)

let test_timeseries_iter () =
  let ts = Timeseries.create () in
  Timeseries.add ts 1.0 10.0;
  Timeseries.add ts 2.0 20.0;
  let acc = ref [] in
  Timeseries.iter ts (fun t v -> acc := (t, v) :: !acc);
  Alcotest.(check int) "visited all" 2 (List.length !acc)

let test_table_formats () =
  Alcotest.(check string) "times" "1.65x" (Table.fmt_times 1.65);
  Alcotest.(check string) "pct" "40.0%" (Table.fmt_pct 0.4);
  Alcotest.(check string) "int float" "12" (Table.fmt_float 12.0)

(* -- Timeseries ------------------------------------------------------ *)

let test_timeseries_basics () =
  let ts = Timeseries.create ~name:"s" () in
  Alcotest.(check int) "empty" 0 (Timeseries.length ts);
  for i = 1 to 100 do
    Timeseries.add ts (float_of_int i) (float_of_int (i * i))
  done;
  Alcotest.(check int) "length" 100 (Timeseries.length ts);
  Alcotest.(check (option (pair (float 0.0) (float 0.0)))) "last"
    (Some (100.0, 10000.0)) (Timeseries.last ts);
  Alcotest.(check string) "name" "s" (Timeseries.name ts)

let test_timeseries_downsample () =
  let ts = Timeseries.create () in
  for i = 0 to 99 do
    Timeseries.add ts (float_of_int i) 1.0
  done;
  Alcotest.(check int) "10 buckets" 10 (Array.length (Timeseries.downsample ts 10));
  Alcotest.(check int) "more buckets than samples" 100
    (Array.length (Timeseries.downsample ts 500));
  Array.iter
    (fun (_, v) -> check_float "bucket mean of ones" 1.0 v)
    (Timeseries.downsample ts 7)

let test_timeseries_empty_singleton () =
  let ts = Timeseries.create () in
  Alcotest.(check (option (pair (float 0.0) (float 0.0)))) "empty last"
    None (Timeseries.last ts);
  Alcotest.(check int) "empty downsample" 0
    (Array.length (Timeseries.downsample ts 4));
  Timeseries.add ts 3.0 7.0;
  Alcotest.(check int) "singleton length" 1 (Timeseries.length ts);
  Alcotest.(check (option (pair (float 0.0) (float 0.0)))) "singleton last"
    (Some (3.0, 7.0)) (Timeseries.last ts)

let test_timeseries_capacity_retention () =
  let ts = Timeseries.create ~capacity:8 () in
  for i = 0 to 99 do
    Timeseries.add ts (float_of_int i) (float_of_int (i * 2))
  done;
  Alcotest.(check int) "length capped" 8 (Timeseries.length ts);
  Alcotest.(check int) "dropped counted" 92 (Timeseries.dropped ts);
  (* the survivors are exactly the newest 8, in order *)
  Alcotest.(check (option (pair (float 0.0) (float 0.0)))) "newest kept"
    (Some (99.0, 198.0)) (Timeseries.last ts);
  let times = Timeseries.times ts in
  Array.iteri
    (fun i t -> check_float "window of newest" (float_of_int (92 + i)) t)
    times

let test_timeseries_age_retention () =
  let ts = Timeseries.create ~max_age:10.0 () in
  for i = 0 to 99 do
    Timeseries.add ts (float_of_int i) 1.0
  done;
  (* retained: times within [99 - 10, 99] *)
  Alcotest.(check int) "aged out" 11 (Timeseries.length ts);
  check_float "oldest survivor" 89.0 (fst (Timeseries.get ts 0));
  Alcotest.(check int) "age drops counted" 89 (Timeseries.dropped ts);
  (* a huge time jump keeps the newest sample even though everything
     else (including itself, naively) is out of the age window *)
  Timeseries.add ts 1e9 7.0;
  Alcotest.(check int) "jump leaves newest" 1 (Timeseries.length ts);
  Alcotest.(check (option (pair (float 0.0) (float 0.0)))) "newest is jump"
    (Some (1e9, 7.0)) (Timeseries.last ts)

let test_timeseries_first_at_or_after () =
  let ts = Timeseries.create ~capacity:16 () in
  for i = 0 to 9 do
    Timeseries.add ts (float_of_int (i * 10)) 0.0
  done;
  Alcotest.(check int) "before all" 0 (Timeseries.first_at_or_after ts (-5.0));
  Alcotest.(check int) "exact hit" 3 (Timeseries.first_at_or_after ts 30.0);
  Alcotest.(check int) "between" 4 (Timeseries.first_at_or_after ts 31.0);
  Alcotest.(check int) "past the end" 10
    (Timeseries.first_at_or_after ts 1000.0);
  (* still correct once the ring has wrapped *)
  for i = 10 to 24 do
    Timeseries.add ts (float_of_int (i * 10)) 0.0
  done;
  Alcotest.(check int) "wrapped length" 16 (Timeseries.length ts);
  check_float "wrapped start" 90.0 (fst (Timeseries.get ts 0));
  Alcotest.(check int) "wrapped search" 1
    (Timeseries.first_at_or_after ts 95.0)

let test_timeseries_bad_retention_args () =
  let bad f =
    try
      ignore (f ());
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "capacity 0" true
    (bad (fun () -> Timeseries.create ~capacity:0 ()));
  Alcotest.(check bool) "max_age 0" true
    (bad (fun () -> Timeseries.create ~max_age:0.0 ()))

let qcheck_timeseries_retention_newest =
  QCheck.Test.make
    ~name:"retention never drops the newest sample (ring + age)" ~count:200
    QCheck.(
      triple (int_range 1 12)
        (small_list (pair (float_bound_exclusive 20.0) (float_range (-5.0) 5.0)))
        (float_range 0.5 50.0))
    (fun (capacity, samples, max_age) ->
      QCheck.assume (samples <> []);
      let ts = Timeseries.create ~capacity ~max_age () in
      let t = ref 0.0 in
      let last = ref (0.0, 0.0) in
      List.iter
        (fun (dt, v) ->
          t := !t +. Float.abs dt;
          Timeseries.add ts !t v;
          last := (!t, v))
        samples;
      Timeseries.length ts >= 1
      && Timeseries.length ts <= capacity
      && Timeseries.last ts = Some !last
      && Timeseries.dropped ts + Timeseries.length ts
         = List.length samples)

let qcheck_timeseries_times_sorted =
  QCheck.Test.make ~name:"retained times stay sorted under eviction"
    ~count:200
    QCheck.(
      pair (int_range 1 8)
        (small_list (pair (float_bound_exclusive 10.0) (float_range 0.0 1.0))))
    (fun (capacity, samples) ->
      QCheck.assume (samples <> []);
      let ts = Timeseries.create ~capacity ~max_age:15.0 () in
      let t = ref 0.0 in
      List.iter
        (fun (dt, v) ->
          t := !t +. Float.abs dt;
          Timeseries.add ts !t v)
        samples;
      let times = Timeseries.times ts in
      let sorted = ref true in
      for i = 1 to Array.length times - 1 do
        if times.(i - 1) > times.(i) then sorted := false
      done;
      !sorted)

let test_timeseries_sparkline () =
  let ts = Timeseries.create () in
  for i = 0 to 20 do
    Timeseries.add ts (float_of_int i) (float_of_int i)
  done;
  Alcotest.(check bool) "non-empty" true
    (String.length (Timeseries.sparkline ts 8) > 0);
  Alcotest.(check string) "empty series" ""
    (Timeseries.sparkline (Timeseries.create ()) 8)

(* -- Minijson -------------------------------------------------------- *)

let test_minijson_values () =
  Alcotest.(check bool) "null" true (Minijson.parse "null" = Minijson.Null);
  Alcotest.(check bool) "true" true (Minijson.parse "true" = Minijson.Bool true);
  Alcotest.(check bool) "false" true
    (Minijson.parse " false " = Minijson.Bool false);
  (match Minijson.parse "-12.5e1" with
  | Minijson.Num v -> check_float "number" (-125.0) v
  | _ -> Alcotest.fail "expected Num");
  (match Minijson.parse "[1, 2, 3]" with
  | Minijson.List [ Num a; Num b; Num c ] ->
    check_float "a" 1.0 a; check_float "b" 2.0 b; check_float "c" 3.0 c
  | _ -> Alcotest.fail "expected List of Num");
  (match Minijson.parse "[NaN, +Inf, -Inf]" with
  | Minijson.List [ Num a; Num b; Num c ] ->
    Alcotest.(check bool) "NaN" true (Float.is_nan a);
    check_float "+Inf" infinity b;
    check_float "-Inf" neg_infinity c
  | _ -> Alcotest.fail "expected the non-finite numbers render_number writes");
  Alcotest.(check bool) "empty obj" true (Minijson.parse "{}" = Minijson.Obj []);
  Alcotest.(check bool) "empty list" true
    (Minijson.parse "[]" = Minijson.List [])

let test_minijson_path () =
  let j = Minijson.parse {|{"a": {"b": [1, {"c": 2.5}]}, "d": "x"}|} in
  Alcotest.(check (option (float 0.0))) "to_float on missing" None
    (Option.bind (Minijson.path [ "a"; "z" ] j) Minijson.to_float);
  Alcotest.(check (option string)) "d" (Some "x")
    (Option.bind (Minijson.member "d" j) Minijson.to_string_opt);
  (match Minijson.path [ "a"; "b" ] j with
  | Some (Minijson.List [ _; inner ]) ->
    Alcotest.(check (option (float 0.0))) "a.b[1].c" (Some 2.5)
      (Option.bind (Minijson.member "c" inner) Minijson.to_float)
  | _ -> Alcotest.fail "expected a.b to be a 2-list");
  Alcotest.(check (option string)) "member on non-object" None
    (Option.bind
       (Minijson.member "x" (Minijson.parse "[1]"))
       Minijson.to_string_opt)

let test_minijson_strings () =
  (match Minijson.parse {|"a\"b\\c\n\tA"|} with
  | Minijson.Str s -> Alcotest.(check string) "escapes" "a\"b\\c\n\tA" s
  | _ -> Alcotest.fail "expected Str");
  match Minijson.parse {|{"k\"ey": 1}|} with
  | Minijson.Obj [ (k, _) ] -> Alcotest.(check string) "escaped key" "k\"ey" k
  | _ -> Alcotest.fail "expected single-field Obj"

let test_minijson_malformed () =
  let bad s =
    match Minijson.parse_result s with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (Printf.sprintf "accepted malformed %S" s)
  in
  bad ""; bad "{"; bad "[1,]"; bad "{\"a\":}"; bad "nul"; bad "1 2";
  bad "\"unterminated"; bad "{\"a\" 1}"; bad "[1 2]"; bad "+5"; bad "Na";
  bad "-In"

(* -- Clock ----------------------------------------------------------- *)

let test_clock_monotonic () =
  let prev = ref (Clock.now_ns ()) and backwards = ref 0 in
  for _ = 1 to 100_000 do
    let now = Clock.now_ns () in
    if now < !prev then incr backwards;
    prev := now
  done;
  Alcotest.(check int) "reads that went backwards" 0 !backwards;
  let words = Gc.minor_words () in
  ignore (Clock.now_ns ());
  check_float "a read allocates nothing" 0.0 (Gc.minor_words () -. words)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "mitos_util"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int_in" `Quick test_rng_int_in;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "bernoulli extremes" `Quick test_rng_bernoulli_extremes;
          Alcotest.test_case "geometric" `Quick test_rng_geometric;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          Alcotest.test_case "pick" `Quick test_rng_pick;
          Alcotest.test_case "bytes" `Quick test_rng_bytes;
          Alcotest.test_case "weighted" `Quick test_rng_weighted;
          Alcotest.test_case "copy" `Quick test_rng_copy_independent;
          Alcotest.test_case "exponential" `Quick test_rng_exponential;
          q qcheck_shuffle_is_permutation;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean/variance" `Quick test_stats_mean_variance;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "mse pairwise" `Quick test_stats_mse_pairwise;
          Alcotest.test_case "jain" `Quick test_stats_jain;
          Alcotest.test_case "entropy" `Quick test_stats_entropy;
          Alcotest.test_case "gini" `Quick test_stats_gini;
          Alcotest.test_case "online batch" `Quick test_stats_online_matches_batch;
          Alcotest.test_case "online merge" `Quick test_stats_online_merge;
          q qcheck_jain_bounds;
          q qcheck_entropy_normalized_bounds;
        ] );
      ( "codec",
        [
          Alcotest.test_case "uint" `Quick test_codec_uint;
          Alcotest.test_case "int zigzag" `Quick test_codec_int_zigzag;
          Alcotest.test_case "float/string/bool" `Quick test_codec_float_string_bool;
          Alcotest.test_case "float bits" `Quick test_codec_float_bits;
          Alcotest.test_case "containers" `Quick test_codec_containers;
          Alcotest.test_case "malformed" `Quick test_codec_malformed;
          Alcotest.test_case "varint edges" `Quick test_codec_varint_edges;
          Alcotest.test_case "hostile lengths" `Quick test_codec_hostile_lengths;
          Alcotest.test_case "seek, reset and packed bytes" `Quick test_codec_seek_and_reset;
          q qcheck_codec_int_roundtrip;
          q qcheck_codec_string_roundtrip;
          q qcheck_codec_uint_bytewise;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "too many cells" `Quick test_table_too_many_cells;
          Alcotest.test_case "markdown" `Quick test_table_markdown;
          Alcotest.test_case "formats" `Quick test_table_formats;
          Alcotest.test_case "alignment/separator" `Quick
            test_table_alignment_and_separator;
        ] );
      ( "timeseries",
        [
          Alcotest.test_case "basics" `Quick test_timeseries_basics;
          Alcotest.test_case "downsample" `Quick test_timeseries_downsample;
          Alcotest.test_case "empty/singleton" `Quick
            test_timeseries_empty_singleton;
          Alcotest.test_case "sparkline" `Quick test_timeseries_sparkline;
          Alcotest.test_case "iter" `Quick test_timeseries_iter;
          Alcotest.test_case "capacity retention" `Quick
            test_timeseries_capacity_retention;
          Alcotest.test_case "age retention" `Quick
            test_timeseries_age_retention;
          Alcotest.test_case "first_at_or_after" `Quick
            test_timeseries_first_at_or_after;
          Alcotest.test_case "bad retention args" `Quick
            test_timeseries_bad_retention_args;
          q qcheck_timeseries_retention_newest;
          q qcheck_timeseries_times_sorted;
        ] );
      ( "clock",
        [ Alcotest.test_case "monotonic" `Quick test_clock_monotonic ] );
      ( "minijson",
        [
          Alcotest.test_case "values" `Quick test_minijson_values;
          Alcotest.test_case "nesting and path" `Quick test_minijson_path;
          Alcotest.test_case "strings and escapes" `Quick
            test_minijson_strings;
          Alcotest.test_case "malformed" `Quick test_minijson_malformed;
        ] );
    ]
