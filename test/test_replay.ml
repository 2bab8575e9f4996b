module Trace = Mitos_replay.Trace
module Recorder = Mitos_replay.Recorder
module W = Mitos_workload

let small_workload seed = W.Lookup_table.build ~seed ()

let record_small seed =
  W.Workload.record (small_workload seed)

let test_trace_basics () =
  let trace = record_small 3 in
  Alcotest.(check bool) "has records" true (Trace.length trace > 0);
  Alcotest.(check (option string)) "meta" (Some "lookup-table")
    (Trace.find_meta trace "workload");
  Alcotest.(check (option string)) "missing meta" None
    (Trace.find_meta trace "nope");
  let count = ref 0 in
  Trace.iter trace (fun _ -> incr count);
  Alcotest.(check int) "iter covers all" (Trace.length trace) !count

let test_trace_serialization_roundtrip () =
  let trace = record_small 3 in
  let s = Trace.to_string trace in
  let trace' = Trace.of_string s in
  Alcotest.(check int) "length preserved" (Trace.length trace) (Trace.length trace');
  Alcotest.(check int) "mem size" (Trace.mem_size trace) (Trace.mem_size trace');
  Alcotest.(check bool) "records identical" true
    (Trace.records trace = Trace.records trace');
  Alcotest.(check bool) "program identical" true
    (Mitos_isa.Program.code (Trace.program trace)
    = Mitos_isa.Program.code (Trace.program trace'));
  Alcotest.(check string) "re-serialization stable" s (Trace.to_string trace')

let test_trace_corruption () =
  let trace = record_small 3 in
  let s = Trace.to_string trace in
  let bad_magic = "XXXXXXXX" ^ String.sub s 8 (String.length s - 8) in
  Alcotest.(check bool) "bad magic" true
    (try ignore (Trace.of_string bad_magic); false
     with Mitos_util.Codec.Malformed _ -> true);
  let truncated = String.sub s 0 (String.length s / 2) in
  Alcotest.(check bool) "truncated" true
    (try ignore (Trace.of_string truncated); false
     with Mitos_util.Codec.Malformed _ -> true);
  let trailing = s ^ "junk" in
  Alcotest.(check bool) "trailing bytes" true
    (try ignore (Trace.of_string trailing); false
     with Mitos_util.Codec.Malformed _ -> true)

(* The MITRACE1 bytes themselves, not just their round trip: a change
   to the record type must leave old trace files readable. *)
let format_pins =
  [
    ( "lookup-table seed 3",
      (fun () -> record_small 3),
      "80802dfdebbcee3004b1dfa48d3b18f9" );
    ( "netbench chunks 2 seed 1",
      (fun () -> W.Workload.record (W.Netbench.build ~seed:1 ~chunks:2 ())),
      "0333c30f6c0bac6d63c8e3a825486b33" );
  ]

let format_pin_tests =
  List.map
    (fun (name, record, digest) ->
      Alcotest.test_case name `Quick (fun () ->
          let s = Trace.to_string (record ()) in
          Alcotest.(check string) "bytes digest" digest
            (Digest.to_hex (Digest.string s));
          Alcotest.(check string) "decode then encode" s
            (Trace.to_string (Trace.of_string s))))
    format_pins

(* A one-record trace of [prog], the record's fields written out as
   MITRACE1 carries them, so a test can make them disagree with the
   instruction. *)
let raw_trace prog ~pc ~reads ~write ~mem_read ~mem_write ~taken ~next_pc =
  let module E = Mitos_util.Codec.Enc in
  let enc = E.create () in
  let pair (a, b) =
    E.uint enc a;
    E.uint enc b
  in
  E.string enc "MITRACE1";
  Mitos_isa.Program.encode enc prog;
  E.uint enc 4096;
  E.list enc ignore [];
  E.uint enc 1;
  E.uint enc 0;
  E.uint enc pc;
  Mitos_isa.Instr.encode enc (Mitos_isa.Program.instr prog pc);
  E.list enc pair reads;
  E.option enc pair write;
  E.option enc pair mem_read;
  E.option enc pair mem_write;
  E.option enc (E.bool enc) taken;
  E.uint enc next_pc;
  E.list enc ignore [];
  E.contents enc

let test_trace_inconsistent_records () =
  let module I = Mitos_isa.Instr in
  let prog =
    Mitos_isa.Program.make
      [|
        I.Load (I.W32, 2, 1, 0); I.Store (I.W8, 2, 1, 4);
        I.Branch (I.Eq, 1, 1, 3); I.Halt;
      |]
  in
  let malformed s =
    match Trace.of_string s with
    | _ -> false
    | exception Mitos_util.Codec.Malformed _ -> true
  in
  let load = raw_trace prog ~pc:0 ~reads:[ (1, 8) ] ~write:(Some (2, 7)) ~mem_write:None ~taken:None ~next_pc:1 in
  Alcotest.(check bool) "a load with its read decodes" false
    (malformed (load ~mem_read:(Some (8, 4))));
  Alcotest.(check bool) "a load with no memory read" true
    (malformed (load ~mem_read:None));
  Alcotest.(check bool) "a store whose read registers disagree" true
    (malformed
       (raw_trace prog ~pc:1 ~reads:[ (3, 7); (1, 8) ] ~write:None ~mem_read:None
          ~mem_write:(Some (12, 1)) ~taken:None ~next_pc:2));
  Alcotest.(check bool) "a branch with no outcome" true
    (malformed
       (raw_trace prog ~pc:2 ~reads:[ (1, 8); (1, 8) ] ~write:None ~mem_read:None
          ~mem_write:None ~taken:None ~next_pc:3))

(* -- the record codec against its reference -------------------------------- *)

module Codec = Mitos_util.Codec
module Machine = Mitos_isa.Machine
module Program = Mitos_isa.Program

(* What [Trace.of_string] must give: every record read by
   [Machine.decode_record], the definition of the format, through the
   [Codec.Dec.array] and [expect_end] that frame them. *)
let reference_decode s =
  let dec = Codec.Dec.of_string s in
  if Codec.Dec.string dec <> "MITRACE1" then raise (Codec.Malformed "bad trace magic");
  let program = Program.decode dec in
  ignore (Codec.Dec.uint dec);
  ignore
    (Codec.Dec.list dec (fun dec ->
         let k = Codec.Dec.string dec in
         (k, Codec.Dec.string dec)));
  let records = Codec.Dec.array dec (Machine.decode_record program) in
  Codec.Dec.expect_end dec;
  (program, records)

(* A record holds the program's own instruction iff it matched it. *)
let owns program (r : Machine.exec_record) =
  r.pc >= 0 && r.pc < Program.length program && r.instr == Program.instr program r.pc

(* [None] when [Trace.of_string] reads [s] as the reference does: the
   same records, sharing the program's instructions alike, or the same
   exception; otherwise what differs. *)
let decode_mismatch s =
  let outcome f = match f () with v -> Ok v | exception e -> Error (Printexc.to_string e) in
  match
    ( outcome (fun () -> reference_decode s),
      outcome (fun () ->
          let t = Trace.of_string s in
          (Trace.program t, Trace.records t)) )
  with
  | Error a, Error b when a = b -> None
  | Ok (pa, ra), Ok (pb, rb) when ra = rb ->
    let n = Array.length ra in
    let rec first i =
      if i = n then None
      else if owns pa ra.(i) <> owns pb rb.(i) then
        Some (Printf.sprintf "record %d shares its instruction on one side only" i)
      else first (i + 1)
    in
    first 0
  | Error a, Error b -> Some (Printf.sprintf "reference %S, decode %S" a b)
  | Error a, Ok _ -> Some ("only the reference raised " ^ a)
  | Ok _, Error b -> Some ("only the decode raised " ^ b)
  | Ok _, Ok _ -> Some "different records"

let check_same_decode what s =
  match decode_mismatch s with None -> () | Some d -> Alcotest.failf "%s: %s" what d

module G = QCheck.Gen

(* Instructions of a [len]-instruction program, immediates up to the
   magnitudes [Codec.Enc.int] does not round-trip. *)
let gen_instr len =
  let module I = Mitos_isa.Instr in
  let reg = G.int_bound 15 in
  let imm =
    G.frequency
      [
        (6, G.int_range (-300) 300);
        (2, G.int_range (-(1 lsl 40)) (1 lsl 40));
        (1, G.oneofl [ min_int; max_int; 1 lsl 61; -(1 lsl 61); (1 lsl 61) - 1 ]);
      ]
  in
  let target = G.int_bound (len - 1) in
  let binop = G.oneofl I.[ Add; Sub; Mul; Divu; Rem; And; Or; Xor; Shl; Shr ] in
  let width = G.oneofl I.[ W8; W32 ] in
  let cond = G.oneofl I.[ Eq; Ne; Lt; Ge; Ltu; Geu ] in
  G.oneof
    [
      G.map2 (fun rd i -> I.Li (rd, i)) reg imm;
      G.map2 (fun rd rs -> I.Mov (rd, rs)) reg reg;
      G.map4 (fun op rd a b -> I.Bin (op, rd, a, b)) binop reg reg reg;
      G.map4 (fun op rd rs i -> I.Bini (op, rd, rs, i)) binop reg reg imm;
      G.map4 (fun w rd rb off -> I.Load (w, rd, rb, off)) width reg reg imm;
      G.map4 (fun w rs rb off -> I.Store (w, rs, rb, off)) width reg reg imm;
      G.map4 (fun c a b t -> I.Branch (c, a, b, t)) cond reg reg target;
      G.map (fun t -> I.Jmp t) target;
      G.map (fun rs -> I.Jr rs) reg;
      G.map (fun n -> I.Syscall n) (G.int_bound 20);
      G.return I.Nop;
      G.return I.Halt;
    ]

(* Values from one byte to longer than the plans' varint reader takes. *)
let gen_value =
  G.frequency
    [
      (6, G.int_bound 127);
      (3, G.int_bound (1 lsl 32));
      (1, G.map (fun x -> x land max_int) G.int);
    ]

let gen_effect =
  G.oneof
    [
      G.map3 (fun addr len source -> Machine.Sys_wrote_mem { addr; len; source })
        gen_value gen_value G.int;
      G.map3 (fun addr len sink -> Machine.Sys_read_mem { addr; len; sink })
        gen_value gen_value G.int;
      G.map3 (fun addr len key -> Machine.Sys_snapshot_mem { addr; len; key })
        gen_value gen_value G.int;
      G.map (fun reg -> Machine.Sys_set_reg { reg }) (G.int_bound 15);
      G.return Machine.Sys_halt;
    ]

(* Mostly the program's own instruction at its pc; also another
   instruction, a pc outside the program, and syscalls with effects. *)
let gen_record program =
  let len = Program.length program in
  let open G in
  let* pc, instr =
    frequency
      [
        (8, map (fun pc -> (pc, Program.instr program pc)) (int_bound (len - 1)));
        (1, pair (int_bound (len - 1)) (gen_instr len));
        (1, pair (int_range len (len + 300)) (gen_instr len));
      ]
  in
  let* effects =
    match instr with
    | Mitos_isa.Instr.Syscall _ -> list_size (int_bound 3) gen_effect
    | _ -> frequency [ (9, return []); (1, list_size (int_range 1 2) gen_effect) ]
  in
  let* step = gen_value and* read0 = gen_value and* read1 = gen_value in
  let* read2 = gen_value and* written = gen_value and* mem_addr = gen_value in
  let* taken = bool and* next_pc = gen_value in
  return
    {
      Machine.step; pc; instr; read0; read1; read2; written; mem_addr; taken;
      next_pc; sys_effects = effects;
    }

let gen_trace =
  let open G in
  let* len = int_range 1 12 in
  let* code = array_size (return len) (gen_instr len) in
  let program = Program.make code in
  let* records = array_size (int_bound 40) (gen_record program) in
  return (Trace.make ~program ~mem_size:4096 records)

let gen_trace_bytes = G.map Trace.to_string gen_trace

(* A byte flipped, a varint's last byte padded to a non-canonical
   encoding of the same value (0x05 becomes 0x85 0x00), or a cut. *)
type mutation = Flip of int * int | Pad of int | Cut of int

let mutate s m =
  let n = String.length s in
  if n = 0 then s
  else
    match m with
    | Flip (at, mask) ->
      let b = Bytes.of_string s in
      let at = at mod n in
      Bytes.set b at (Char.chr (Char.code s.[at] lxor mask));
      Bytes.to_string b
    | Pad at ->
      let at = at mod n in
      let c = Char.code s.[at] in
      if c >= 0x80 then s
      else
        String.concat ""
          [ String.sub s 0 at; String.make 1 (Char.chr (c lor 0x80)); "\000";
            String.sub s (at + 1) (n - at - 1) ]
    | Cut len -> String.sub s 0 (len mod (n + 1))

let gen_mutation =
  G.frequency
    [
      (* small masks turn a bool byte into 2 or 3 *)
      (2, G.map2 (fun at mask -> Flip (at, mask)) G.nat (G.int_range 1 3));
      (2, G.map2 (fun at mask -> Flip (at, mask)) G.nat (G.int_range 1 255));
      (3, G.map (fun at -> Pad at) G.nat);
      (1, G.map (fun len -> Cut len) G.nat);
    ]

let arb_mutated base =
  QCheck.make
    ~print:(fun s -> Printf.sprintf "%d bytes: %S" (String.length s) s)
    G.(
      let* s = base in
      let* ms = list_size (int_bound 4) gen_mutation in
      return (List.fold_left mutate s ms))

let qcheck_synthesized_traces =
  QCheck.Test.make ~name:"synthesized traces decode as the reference" ~count:1500
    (arb_mutated gen_trace_bytes) (fun s ->
      match decode_mismatch s with
      | None -> true
      | Some d -> QCheck.Test.fail_report d)

(* What [Trace.to_string] must write: every record by
   [Machine.encode_record]. *)
let reference_encode t =
  let module E = Codec.Enc in
  let enc = E.create () in
  E.string enc "MITRACE1";
  Program.encode enc (Trace.program t);
  E.uint enc (Trace.mem_size t);
  E.list enc
    (fun (k, v) ->
      E.string enc k;
      E.string enc v)
    (Trace.meta t);
  E.array enc (Machine.encode_record enc) (Trace.records t);
  E.contents enc

let qcheck_synthesized_encode =
  QCheck.Test.make ~name:"synthesized traces encode as the reference" ~count:500
    (QCheck.make gen_trace) (fun t -> Trace.to_string t = reference_encode t)

let small_trace_bytes = lazy (Trace.to_string (record_small 3))

let qcheck_recorded_trace =
  QCheck.Test.make ~name:"a recorded trace, mutated, decodes as the reference"
    ~count:150
    (arb_mutated (G.return (Lazy.force small_trace_bytes)))
    (fun s ->
      match decode_mismatch s with
      | None -> true
      | Some d -> QCheck.Test.fail_report d)

let test_recorded_traces_match_reference () =
  check_same_decode "lookup-table" (Lazy.force small_trace_bytes);
  let recorded = W.Workload.record (W.Netbench.build ~seed:1 ~chunks:2 ()) in
  let netbench = Trace.to_string recorded in
  Alcotest.(check bool) "netbench encodes as the reference" true
    (netbench = reference_encode recorded);
  check_same_decode "netbench" netbench;
  (* the records' own bytes with nothing after them but [expect_end] *)
  check_same_decode "netbench, one byte more" (netbench ^ "\000")

(* Every cut of a synthesized trace of a few hundred bytes, and every
   byte of it flipped by a few masks: a record cut anywhere, records
   within the plans' margin of the end, bool bytes of 2 and 3, and
   varints made longer. The trace has branch records for its plans to
   read. *)
let test_every_truncation_and_flip () =
  let rand = Random.State.make [| 31 |] in
  let branches s =
    let program, records = reference_decode s in
    Array.to_list records
    |> List.filter (fun (r : Machine.exec_record) ->
           owns program r && Mitos_isa.Instr.is_branch r.instr)
    |> List.length
  in
  let rec sized () =
    let s = G.generate1 ~rand gen_trace_bytes in
    if String.length s >= 300 && branches s >= 3 then s else sized ()
  in
  let s = sized () in
  for len = 0 to String.length s do
    check_same_decode (Printf.sprintf "first %d bytes" len) (String.sub s 0 len)
  done;
  (* records of the program's own instructions, with values of several
     bytes and no syscall, cut anywhere: the plans read up to the end *)
  let module I = Mitos_isa.Instr in
  let program =
    Program.make
      [| I.Bin (I.Add, 1, 2, 3); I.Load (I.W32, 4, 5, 8); I.Branch (I.Ltu, 1, 4, 0);
         I.Store (I.W8, 4, 5, -3) |]
  in
  let records =
    Array.init 16 (fun step ->
        let v = 1000 + (step * 70_001) in
        { Machine.step; pc = step mod 4; instr = Program.instr program (step mod 4);
          read0 = v; read1 = v + 1; read2 = 0; written = v + 2; mem_addr = v + 3;
          taken = step mod 2 = 0; next_pc = (step + 1) mod 4; sys_effects = [] })
  in
  let own = Trace.to_string (Trace.make ~program ~mem_size:4096 records) in
  for len = 0 to String.length own do
    check_same_decode (Printf.sprintf "first %d bytes of own records" len)
      (String.sub own 0 len)
  done;
  for at = 0 to String.length s - 1 do
    List.iter
      (fun m ->
        let s' = mutate s m in
        if s' <> s then
          check_same_decode (Printf.sprintf "byte %d mutated" at) s')
      [ Flip (at, 1); Flip (at, 2); Flip (at, 3); Flip (at, 0x80); Pad at ]
  done

(* Nine varint bytes that decode to -1 as a uint and to [min_int] as a
   zigzag int: bytes a hostile program can hold, and [Codec.Enc] never
   writes. *)
let all_ones = "\xff\xff\xff\xff\xff\xff\xff\xff\x7f"

(* A trace whose program is [Li (1, min_int); Mov (-1, 2); Halt], as
   the bytes [all_ones] give it, and [records]' bytes. *)
let hostile_program_trace records =
  let module E = Codec.Enc in
  let module I = Mitos_isa.Instr in
  let enc = E.create () in
  E.string enc "MITRACE1";
  E.uint enc 3;
  E.uint enc 0 (* li *);
  E.uint enc 1;
  let li = E.contents enc ^ all_ones in
  let enc = E.create () in
  E.uint enc 1 (* mov *);
  let mov = E.contents enc ^ all_ones ^ "\002" in
  let enc = E.create () in
  I.encode enc I.Halt;
  E.list enc ignore [];
  E.uint enc 4096;
  E.list enc ignore [];
  E.uint enc (List.length records);
  li ^ mov ^ E.contents enc ^ String.concat "" records

(* The program's [Li] immediate is [min_int]: records carry
   [Codec.Enc.int]'s bytes for it, which read back as another
   immediate, so each holds a fresh instruction. Its [Mov] writes
   register -1, which [Codec.Enc.uint] refuses, so that pc gets no plan;
   its records, which say there is no register write, still decode. *)
let test_fields_not_written_back () =
  let module E = Codec.Enc in
  let module I = Mitos_isa.Instr in
  let li step =
    let enc = E.create () in
    Machine.encode_record enc
      { Machine.step; pc = 0; instr = I.Li (1, min_int); read0 = 0; read1 = 0;
        read2 = 0; written = step; mem_addr = 0; taken = false; next_pc = 1;
        sys_effects = [] };
    E.contents enc
  in
  let mov step =
    let enc = E.create () in
    List.iter (E.uint enc) [ step; 1; 1 ];
    let head = E.contents enc in
    let enc = E.create () in
    (* one read of r2, no register write, no memory, no branch *)
    List.iter (E.uint enc) [ 2; 1; 2; 300 + step; 0; 0; 0; 0; 2; 0 ];
    head ^ all_ones ^ E.contents enc
  in
  let s = hostile_program_trace (List.concat (List.init 6 (fun i -> [ li i; mov i ]))) in
  check_same_decode "fields the encoder does not write back" s;
  let trace = Trace.of_string s in
  let program = Trace.program trace in
  Alcotest.(check bool) "the program holds min_int" true
    (Program.instr program 0 = I.Li (1, min_int));
  Alcotest.(check bool) "and register -1" true (Program.instr program 1 = I.Mov (-1, 2));
  Alcotest.(check int) "every record decodes" 12 (Trace.length trace);
  Array.iter
    (fun (r : Machine.exec_record) ->
      Alcotest.(check bool) "a fresh li, the program's own mov" (r.pc = 1) (owns program r))
    (Trace.records trace)

let test_trace_file_io () =
  let trace = record_small 3 in
  let path = Filename.temp_file "mitos" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace.save trace path;
      let loaded = Trace.load path in
      Alcotest.(check bool) "file roundtrip" true
        (Trace.to_string trace = Trace.to_string loaded))

let test_recording_deterministic () =
  (* the PANDA property: identically-built workloads record identical
     traces *)
  Alcotest.(check bool) "deterministic" true
    (Recorder.verify_deterministic
       ~make_machine:(fun () -> W.Workload.machine_of (small_workload 9))
       ())

let test_different_seeds_differ () =
  (* netbench payload is seed-derived, so the recorded values differ *)
  let record seed = W.Workload.record (W.Netbench.build ~seed ~chunks:2 ()) in
  let t1 = record 1 and t2 = record 2 in
  Alcotest.(check bool) "different payload -> different trace" true
    (Trace.to_string t1 <> Trace.to_string t2)

let test_max_steps_truncates () =
  let b = small_workload 4 in
  let trace = Recorder.record ~max_steps:50 (W.Workload.machine_of b) in
  Alcotest.(check int) "truncated at 50" 50 (Trace.length trace)

let test_replay_through_engine_matches_live () =
  (* record once, replay through an engine; compare against live run *)
  let policy = Mitos_dift.Policies.propagate_all in
  let live = W.Workload.run_live ~policy (small_workload 7) in
  let b = small_workload 7 in
  let trace = W.Workload.record b in
  let replayed = W.Workload.replay ~policy b trace in
  let s_live = Mitos_dift.Metrics.of_engine live in
  let s_rep = Mitos_dift.Metrics.of_engine replayed in
  Alcotest.(check int) "copies" s_live.Mitos_dift.Metrics.total_copies
    s_rep.Mitos_dift.Metrics.total_copies;
  Alcotest.(check int) "tainted" s_live.Mitos_dift.Metrics.tainted_bytes
    s_rep.Mitos_dift.Metrics.tainted_bytes;
  Alcotest.(check int) "ifp decisions"
    (s_live.Mitos_dift.Metrics.ifp_propagated
    + s_live.Mitos_dift.Metrics.ifp_blocked)
    (s_rep.Mitos_dift.Metrics.ifp_propagated
    + s_rep.Mitos_dift.Metrics.ifp_blocked)

let test_replay_with_dynamic_sources_from_disk () =
  (* netbench mints source ids while running (per-read network tags,
     export marks); a trace saved to disk must carry that table so a
     fresh process can replay it faithfully *)
  let policy = Mitos_dift.Policies.propagate_all in
  let b = W.Netbench.build ~seed:31 ~chunks:4 () in
  let trace = W.Workload.record b in
  let live_like = W.Workload.replay ~policy b trace in
  let path = Filename.temp_file "mitos" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace.save trace path;
      let loaded = Trace.load path in
      (* deliberately mismatched seed: sources come from the trace *)
      let fresh_b = W.Netbench.build ~seed:999 ~chunks:4 () in
      let replayed = W.Workload.replay ~policy fresh_b loaded in
      let s1 = Mitos_dift.Metrics.of_engine live_like in
      let s2 = Mitos_dift.Metrics.of_engine replayed in
      Alcotest.(check int) "copies survive disk+fresh OS"
        s1.Mitos_dift.Metrics.total_copies s2.Mitos_dift.Metrics.total_copies;
      Alcotest.(check int) "tainted bytes match"
        s1.Mitos_dift.Metrics.tainted_bytes s2.Mitos_dift.Metrics.tainted_bytes;
      Alcotest.(check bool) "sources actually resolved" true
        (s2.Mitos_dift.Metrics.total_copies > 100))

let test_replay_is_repeatable () =
  let b = small_workload 8 in
  let trace = W.Workload.record b in
  let run () =
    let e = W.Workload.replay ~policy:Mitos_dift.Policies.propagate_all b trace in
    Mitos_dift.Metrics.of_engine e
  in
  let s1 = run () and s2 = run () in
  Alcotest.(check int) "identical replays" s1.Mitos_dift.Metrics.shadow_ops
    s2.Mitos_dift.Metrics.shadow_ops

let test_trace_stats () =
  let b = W.Crypto.build ~input_len:128 ~seed:3 () in
  let trace = W.Workload.record b in
  let stats = Mitos_replay.Trace_stats.analyze trace in
  let open Mitos_replay.Trace_stats in
  Alcotest.(check int) "instruction count matches trace" (Trace.length trace)
    stats.instructions;
  Alcotest.(check bool) "loads present" true (stats.loads > 0);
  Alcotest.(check bool) "addr-dep sites = loads + stores" true
    (stats.addr_dep_sites = stats.loads + stats.stores);
  Alcotest.(check bool) "ctrl sites = branches" true
    (stats.ctrl_dep_sites = stats.branches);
  Alcotest.(check bool) "taken <= branches" true
    (stats.branches_taken <= stats.branches);
  Alcotest.(check bool) "hot list bounded" true
    (List.length stats.hottest <= 10);
  (match stats.hottest with
  | (_, top) :: rest ->
    List.iter
      (fun (_, n) -> Alcotest.(check bool) "descending" true (n <= top))
      rest
  | [] -> Alcotest.fail "no hot pcs");
  Alcotest.(check bool) "distinct pcs <= program size" true
    (stats.distinct_pcs
    <= Mitos_isa.Program.length (Trace.program trace));
  Alcotest.(check int) "row arity" 11
    (List.length (Mitos_replay.Trace_stats.to_rows stats))

let test_suspend_resume_tracking () =
  (* split a replay at a scope-free boundary, checkpoint the shadow,
     resume in a fresh engine: the final state must equal an unbroken
     replay *)
  let policy = Mitos_dift.Policies.propagate_all in
  let b = W.Netbench.build ~seed:44 ~chunks:6 () in
  let trace = W.Workload.record b in
  let records = Mitos_replay.Trace.records trace in
  let full = W.Workload.replay ~policy b trace in
  (* first segment *)
  let first = Mitos_dift.Engine.create ~policy
      ~source_tag:(Mitos_system.Os.source_tag b.W.Workload.os)
      b.W.Workload.program
  in
  Mitos_dift.Engine.attach_shadow first ~mem_size:(Mitos_replay.Trace.mem_size trace);
  (* walk forward from the midpoint until no control scope is open *)
  let split = ref (Array.length records / 2) in
  Array.iteri
    (fun i r ->
      if i < !split then Mitos_dift.Engine.process_record first r)
    records;
  while Mitos_dift.Engine.active_scopes first > 0 && !split < Array.length records do
    Mitos_dift.Engine.process_record first records.(!split);
    incr split
  done;
  Alcotest.(check int) "scope-free boundary found" 0
    (Mitos_dift.Engine.active_scopes first);
  (* checkpoint, restore, resume *)
  let snapshot =
    Mitos_tag.Shadow.to_string (Mitos_dift.Engine.shadow first)
  in
  let second = Mitos_dift.Engine.create ~policy
      ~source_tag:(Mitos_system.Os.source_tag b.W.Workload.os)
      b.W.Workload.program
  in
  Mitos_dift.Engine.attach_existing_shadow second
    (Mitos_tag.Shadow.of_string snapshot);
  Array.iteri
    (fun i r ->
      if i >= !split then Mitos_dift.Engine.process_record second r)
    records;
  let stats_of e = Mitos_tag.Tag_stats.snapshot (Mitos_dift.Engine.stats e) in
  Alcotest.(check bool) "resumed state equals unbroken replay" true
    (stats_of second = stats_of full);
  Alcotest.(check int) "tainted bytes equal"
    (Mitos_tag.Shadow.tainted_bytes (Mitos_dift.Engine.shadow full))
    (Mitos_tag.Shadow.tainted_bytes (Mitos_dift.Engine.shadow second))

let test_loop_profile () =
  let b = W.Crypto.build ~input_len:128 ~seed:3 () in
  let trace = W.Workload.record b in
  let loops = Mitos_replay.Trace_stats.loop_profile trace in
  (* crypto has three loops: table fill (256 iters), KSA (256) and the
     PRGA (one per input byte) *)
  Alcotest.(check int) "three loops" 3 (List.length loops);
  let iters =
    List.sort compare
      (List.map (fun l -> l.Mitos_replay.Trace_stats.iterations) loops)
  in
  Alcotest.(check (list int)) "iteration counts" [ 128; 256; 256 ] iters;
  List.iter
    (fun l ->
      Alcotest.(check bool) "body bounds ordered" true
        (l.Mitos_replay.Trace_stats.first_pc
        <= l.Mitos_replay.Trace_stats.last_pc);
      Alcotest.(check bool) "dynamic count positive" true
        (l.Mitos_replay.Trace_stats.body_instructions > 0))
    loops;
  (* straight-line program: no loops *)
  let straight = W.Provenance_story.build ~seed:3 () in
  Alcotest.(check int) "straight-line has no loops" 0
    (List.length
       (Mitos_replay.Trace_stats.loop_profile (W.Workload.record straight)))

let test_syscall_histogram () =
  let b = W.Netbench.build ~seed:7 ~chunks:8 () in
  let trace = W.Workload.record b in
  let hist = Mitos_replay.Trace_stats.syscall_histogram trace in
  let count n = Option.value ~default:0 (List.assoc_opt n hist) in
  Alcotest.(check int) "one read per chunk" 8
    (count Mitos_system.Os.sys_net_read);
  Alcotest.(check int) "one exit" 1 (count Mitos_system.Os.sys_exit);
  (* descending order *)
  let counts = List.map snd hist in
  Alcotest.(check (list int)) "sorted descending"
    (List.sort (fun a b -> compare b a) counts)
    counts

(* -- Pinned replay results ---------------------------------------------

   Each case records a trace, decodes it from bytes and replays it, as
   `mitos-cli replay` does. The final shadow checkpoint digest and the
   engine counters are pinned: a change to the replay hot path must
   reproduce them exactly. *)

module Engine = Mitos_dift.Engine
module Shadow = Mitos_tag.Shadow
module Provenance = Mitos_tag.Provenance
module Calib = Mitos_experiments.Calib

let counters_fingerprint (c : Engine.counters) =
  let ints a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
  Printf.sprintf "steps=%d direct=%d indirect=%d dfp=%d ifp=%d/%d scopes=%d \
                  src=%d sink=%d ops=%d evict=%d prop=[%s] block=[%s]"
    c.steps c.direct_events c.indirect_events c.dfp_propagated c.ifp_propagated
    c.ifp_blocked c.ctrl_scopes_opened c.source_bytes c.sink_tainted_bytes
    c.shadow_ops c.evictions (ints c.per_type_propagated)
    (ints c.per_type_blocked)

let replay_fingerprint ~config ~policy built =
  let trace = Trace.of_string (Trace.to_string (W.Workload.record built)) in
  let engine = W.Workload.replay_engine ~config ~policy built trace in
  Array.iter (Engine.process_record engine) (Trace.records trace);
  ( Digest.to_hex (Digest.string (Shadow.to_string (Engine.shadow engine))),
    counters_fingerprint (Engine.counters engine) )

let params = Calib.sensitivity_params ()
let netbench () = W.Netbench.build ~seed:3 ~chunks:4 ()
let attack () = W.Attack.build W.Attack.Reverse_https ~seed:Calib.attack_seed ()

(* M_prov = 1 makes the attack workload evict a few hundred times *)
let with_eviction eviction = { Engine.default_config with m_prov = 1; eviction }

let pinned_cases =
  [
    ( "netbench mitos",
      (fun () ->
        replay_fingerprint ~config:Engine.default_config
          ~policy:(Mitos_dift.Policies.mitos params) (netbench ())),
      ( "7e5107d93b376a90c3a8d1a994e1b7f6",
        "steps=14384 direct=10788 indirect=1534 dfp=6733 ifp=857/677 scopes=1024 src=1152 sink=4 ops=16658 evict=0"
        ^ " prop=[857,0,0,0,0,0,0,0] block=[677,0,0,0,0,0,0,0]" ) );
    ( "netbench mitos no-recompute",
      (fun () ->
        replay_fingerprint ~config:Engine.default_config
          ~policy:(Mitos_dift.Policies.mitos ~recompute:false params)
          (netbench ())),
      ( "7e5107d93b376a90c3a8d1a994e1b7f6",
        "steps=14384 direct=10788 indirect=1534 dfp=6733 ifp=857/677 scopes=1024 src=1152 sink=4 ops=16658 evict=0"
        ^ " prop=[857,0,0,0,0,0,0,0] block=[677,0,0,0,0,0,0,0]" ) );
    (* netbench's indirect flows each carry one candidate, where the
       ablation and line 9 agree; deciding direct flows too gives
       multi-candidate batches where they do not *)
    ( "netbench mitos-all-flows no-recompute",
      (fun () ->
        replay_fingerprint ~config:Calib.attack_engine_config
          ~policy:
            (Mitos_dift.Policies.mitos ~handle_direct:true ~recompute:false
               params)
          (netbench ())),
      ( "274e42808728b0480032f9d12f44151e",
        "steps=14384 direct=10788 indirect=1195 dfp=5930 ifp=7116/454 scopes=796 src=1152 sink=4 ops=15615 evict=0"
        ^ " prop=[7116,0,0,0,0,0,0,0] block=[454,0,0,0,0,0,0,0]" ) );
    ( "netbench mitos-adaptive",
      (fun () ->
        (* the budget is tight, so the controller raises tau during the
           run and the pin covers decisions under several
           parameterizations *)
        let controller =
          Mitos.Adaptive.create ~gain:0.5 ~target_pollution:1e-8 params
        in
        replay_fingerprint ~config:Engine.default_config
          ~policy:(Mitos_dift.Policies.mitos_adaptive ~update_period:64 controller)
          (netbench ())),
      ( "0413ef7c3a6442d4fee667508417a044",
        "steps=14384 direct=10788 indirect=1534 dfp=6418 ifp=388/1146 scopes=1024 src=1152 sink=4 ops=15346 evict=0"
        ^ " prop=[388,0,0,0,0,0,0,0] block=[1146,0,0,0,0,0,0,0]" ) );
    ( "netbench mitos-all-flows",
      (fun () ->
        replay_fingerprint ~config:Calib.attack_engine_config
          ~policy:(Calib.mitos_all_flows params) (netbench ())),
      ( "0b1cb81f4e06a23a2a74659ca52fb86f",
        "steps=14384 direct=10788 indirect=1179 dfp=5286 ifp=6459/568 scopes=813 src=1152 sink=4 ops=14321 evict=0"
        ^ " prop=[6459,0,0,0,0,0,0,0] block=[568,0,0,0,0,0,0,0]" ) );
    ( "attack reverse_https",
      (fun () ->
        replay_fingerprint ~config:Calib.attack_engine_config
          ~policy:(Calib.mitos_all_flows Calib.attack_params)
          (attack ())),
      ( "3d83d3e9be4a1645e514b6720dd9a130",
        "steps=53276 direct=36703 indirect=988 dfp=9416 ifp=10688/4392 scopes=384 src=1472 sink=6 ops=20838 evict=0"
        ^ " prop=[6078,3652,0,958,0,0,0,0] block=[0,4392,0,0,0,0,0,0]" ) );
    ( "fifo m_prov=1",
      (fun () ->
        replay_fingerprint
          ~config:(with_eviction (Shadow.Structural Provenance.Fifo))
          ~policy:Mitos_dift.Policies.propagate_all (attack ())),
      ( "0c8e3a894ce4d3cf99ea93b6361c315a",
        "steps=53276 direct=36703 indirect=988 dfp=15330 ifp=988/0 scopes=384 src=1472 sink=6 ops=27998 evict=448"
        ^ " prop=[704,0,0,284,0,0,0,0] block=[0,0,0,0,0,0,0,0]" ) );
    ( "lru m_prov=1",
      (fun () ->
        replay_fingerprint
          ~config:(with_eviction (Shadow.Structural Provenance.Lru))
          ~policy:Mitos_dift.Policies.propagate_all (attack ())),
      ( "a13b0f31182f81d7a62c77d51c9a6959",
        "steps=53276 direct=36703 indirect=988 dfp=15330 ifp=988/0 scopes=384 src=1472 sink=6 ops=27998 evict=448"
        ^ " prop=[704,0,0,284,0,0,0,0] block=[0,0,0,0,0,0,0,0]" ) );
    ( "reject m_prov=1",
      (fun () ->
        replay_fingerprint
          ~config:(with_eviction (Shadow.Structural Provenance.Reject))
          ~policy:Mitos_dift.Policies.propagate_all (attack ())),
      ( "e327df2ef5577c48b47c9ccedcb5c384",
        "steps=53276 direct=36703 indirect=988 dfp=15330 ifp=988/0 scopes=384 src=1472 sink=6 ops=27998 evict=0"
        ^ " prop=[988,0,0,0,0,0,0,0] block=[0,0,0,0,0,0,0,0]" ) );
    ( "least-marginal m_prov=1",
      (fun () ->
        replay_fingerprint ~config:(with_eviction Shadow.Least_marginal)
          ~policy:Mitos_dift.Policies.propagate_all (attack ())),
      ( "9b8c752358eef57436b4c86f27e6455e",
        "steps=53276 direct=36703 indirect=988 dfp=15330 ifp=988/0 scopes=384 src=1472 sink=6 ops=27998 evict=448"
        ^ " prop=[704,0,0,284,0,0,0,0] block=[0,0,0,0,0,0,0,0]" ) );
    ( "paged backend",
      (fun () ->
        replay_fingerprint
          ~config:{ Engine.default_config with shadow_backend = Shadow.Paged }
          ~policy:(Mitos_dift.Policies.mitos params) (netbench ())),
      ( "d9859cce9d6a1e9518979a849310ea7f",
        "steps=14384 direct=10788 indirect=1534 dfp=6733 ifp=857/677 scopes=1024 src=1152 sink=4 ops=16658 evict=0"
        ^ " prop=[857,0,0,0,0,0,0,0] block=[677,0,0,0,0,0,0,0]" ) );
  ]

(* -- allocation ------------------------------------------------------------ *)

(* Minor-heap words allocated while [f] runs. Allocation counts are
   exact: the same replay reads the same count on every run. *)
let minor_words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* The replay hot path under mitos-all-flows, where every direct flow
   also runs Alg. 2. Measured at 12.13 words per record to decode (the
   12-word record, and the decode plans: 63 pcs for 7,952 records) and
   24.1 to walk, on OCaml 5.1 with the dev profile; before the decision
   scratch and the matching decode, 16.6 and 80.4, and 25.7 to walk
   while [Decision.add] boxed its submarginal. A record read by
   [Machine.decode_record] instead of its plan allocates some 22 words,
   so the decode bound also fails when the plans stop being used. The
   bounds leave room for a compiler's rounding, not for a per-decision
   allocation to come back. *)
let test_replay_allocation () =
  let built = W.Netbench.build ~seed:1 ~chunks:2 () in
  let bytes = Trace.to_string (W.Workload.record built) in
  let trace = ref None in
  let decode = minor_words (fun () -> trace := Some (Trace.of_string bytes)) in
  let trace = Option.get !trace in
  let engine =
    W.Workload.replay_engine ~config:Calib.attack_engine_config
      ~policy:(Calib.mitos_all_flows params) built trace
  in
  let records = Trace.records trace in
  let walk =
    minor_words (fun () -> Array.iter (Engine.process_record engine) records)
  in
  let n = float_of_int (Array.length records) in
  let within what bound words =
    if words /. n > bound then
      Alcotest.failf "%s: %.2f minor words per record, bound %.1f" what
        (words /. n) bound
  in
  within "decode" 12.2 decode;
  within "walk" 25.0 walk

(* An empty batch outside an instrumented engine decides nothing and
   leaves no record, so it allocates nothing. *)
let test_empty_batch_allocates_nothing () =
  let policy = Calib.mitos_all_flows params in
  let request =
    {
      Mitos_dift.Policy.kind = Mitos_dift.Policy.Direct_copy;
      candidates = [];
      space = 10;
      width = 4;
      stats = Mitos_tag.Tag_stats.create ();
      step = 0;
      ctx = Mitos.Decision.no_ctx;
      scratch = Mitos.Decision.scratch ();
    }
  in
  let chosen = ref [ Mitos_tag.Tag.make Mitos_tag.Tag_type.Network 1 ] in
  let words =
    minor_words (fun () ->
        for _ = 1 to 1000 do
          chosen := Mitos_dift.Policy.select policy request
        done)
  in
  Alcotest.(check (list string)) "nothing chosen" []
    (List.map Mitos_tag.Tag.to_string !chosen);
  Alcotest.(check (float 0.0)) "policy words" 0.0 words;
  let scratch = Mitos.Decision.scratch () in
  let words =
    minor_words (fun () ->
        for _ = 1 to 1000 do
          Mitos.Decision.reset scratch;
          Mitos.Decision.decide Mitos.Decision.no_ctx params ~recompute:true
            ~pollution:1.0 ~space:4 scratch
        done)
  in
  Alcotest.(check (float 0.0)) "decision words" 0.0 words

let pinned_tests =
  List.map
    (fun (name, run, (digest, counters)) ->
      Alcotest.test_case name `Quick (fun () ->
          let digest', counters' = run () in
          Alcotest.(check string) "shadow digest" digest digest';
          Alcotest.(check string) "engine counters" counters counters'))
    pinned_cases

let () =
  Alcotest.run "mitos_replay"
    [
      ( "trace",
        [
          Alcotest.test_case "basics" `Quick test_trace_basics;
          Alcotest.test_case "serialization" `Quick test_trace_serialization_roundtrip;
          Alcotest.test_case "corruption" `Quick test_trace_corruption;
          Alcotest.test_case "inconsistent records" `Quick
            test_trace_inconsistent_records;
          Alcotest.test_case "file io" `Quick test_trace_file_io;
        ] );
      ( "codec",
        [
          Alcotest.test_case "recorded traces match the reference" `Quick
            test_recorded_traces_match_reference;
          Alcotest.test_case "every truncation and flip" `Quick
            test_every_truncation_and_flip;
          Alcotest.test_case "fields not written back" `Quick
            test_fields_not_written_back;
          QCheck_alcotest.to_alcotest qcheck_synthesized_traces;
          QCheck_alcotest.to_alcotest qcheck_synthesized_encode;
          QCheck_alcotest.to_alcotest qcheck_recorded_trace;
        ] );
      ( "recorder",
        [
          Alcotest.test_case "deterministic" `Quick test_recording_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_different_seeds_differ;
          Alcotest.test_case "max steps" `Quick test_max_steps_truncates;
        ] );
      ( "replay",
        [
          Alcotest.test_case "matches live" `Quick test_replay_through_engine_matches_live;
          Alcotest.test_case "dynamic sources from disk" `Quick
            test_replay_with_dynamic_sources_from_disk;
          Alcotest.test_case "repeatable" `Quick test_replay_is_repeatable;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "trace stats" `Quick test_trace_stats;
          Alcotest.test_case "loop profile" `Quick test_loop_profile;
          Alcotest.test_case "suspend/resume tracking" `Quick
            test_suspend_resume_tracking;
          Alcotest.test_case "syscall histogram" `Quick test_syscall_histogram;
        ] );
      ("format", format_pin_tests);
      ("pinned", pinned_tests);
      ( "alloc",
        [
          Alcotest.test_case "replay words per record" `Quick
            test_replay_allocation;
          Alcotest.test_case "empty batch allocates nothing" `Quick
            test_empty_batch_allocates_nothing;
        ] );
    ]
