module Machine = Mitos_isa.Machine
module Instr = Mitos_isa.Instr

type t = {
  instructions : int;
  loads : int;
  stores : int;
  branches : int;
  branches_taken : int;
  indirect_jumps : int;
  syscalls : int;
  alu : int;
  moves : int;
  addr_dep_sites : int;
  ctrl_dep_sites : int;
  bytes_read : int;
  bytes_written : int;
  source_bytes : int;
  sink_bytes : int;
  distinct_pcs : int;
  hottest : (int * int) list;
}

let analyze trace =
  let loads = ref 0 and stores = ref 0 in
  let branches = ref 0 and branches_taken = ref 0 in
  let ijumps = ref 0 and syscalls = ref 0 in
  let alu = ref 0 and moves = ref 0 in
  let bytes_read = ref 0 and bytes_written = ref 0 in
  let source_bytes = ref 0 and sink_bytes = ref 0 in
  let pc_counts = Hashtbl.create 1024 in
  Trace.iter trace (fun (r : Machine.exec_record) ->
      Hashtbl.replace pc_counts r.pc
        (1 + Option.value ~default:0 (Hashtbl.find_opt pc_counts r.pc));
      (match Machine.mem_read r with
      | Some (_, len) -> bytes_read := !bytes_read + len
      | None -> ());
      (match Machine.mem_write r with
      | Some (_, len) -> bytes_written := !bytes_written + len
      | None -> ());
      List.iter
        (function
          | Machine.Sys_wrote_mem { len; _ } -> source_bytes := !source_bytes + len
          | Machine.Sys_read_mem { len; _ } -> sink_bytes := !sink_bytes + len
          | Machine.Sys_snapshot_mem _ | Machine.Sys_set_reg _
          | Machine.Sys_halt ->
            ())
        r.sys_effects;
      match r.instr with
      | Instr.Load _ -> incr loads
      | Instr.Store _ -> incr stores
      | Instr.Branch _ ->
        incr branches;
        if Machine.taken r = Some true then incr branches_taken
      | Instr.Jr _ -> incr ijumps
      | Instr.Syscall _ -> incr syscalls
      | Instr.Bin _ | Instr.Bini _ -> incr alu
      | Instr.Li _ | Instr.Mov _ -> incr moves
      | Instr.Jmp _ | Instr.Nop | Instr.Halt -> ());
  let hottest =
    Hashtbl.fold (fun pc n acc -> (pc, n) :: acc) pc_counts []
    |> List.sort (fun (_, a) (_, b) -> Int.compare b a)
    |> List.filteri (fun i _ -> i < 10)
  in
  {
    instructions = Trace.length trace;
    loads = !loads;
    stores = !stores;
    branches = !branches;
    branches_taken = !branches_taken;
    indirect_jumps = !ijumps;
    syscalls = !syscalls;
    alu = !alu;
    moves = !moves;
    addr_dep_sites = !loads + !stores;
    ctrl_dep_sites = !branches;
    bytes_read = !bytes_read;
    bytes_written = !bytes_written;
    source_bytes = !source_bytes;
    sink_bytes = !sink_bytes;
    distinct_pcs = Hashtbl.length pc_counts;
    hottest;
  }

let to_rows t =
  [
    ("instructions", string_of_int t.instructions);
    ("loads / stores", Printf.sprintf "%d / %d" t.loads t.stores);
    ( "branches (taken)",
      Printf.sprintf "%d (%d)" t.branches t.branches_taken );
    ("indirect jumps", string_of_int t.indirect_jumps);
    ("syscalls", string_of_int t.syscalls);
    ("ALU / moves", Printf.sprintf "%d / %d" t.alu t.moves);
    ( "potential addr deps",
      Printf.sprintf "%d (%.1f%%)" t.addr_dep_sites
        (100.0 *. float_of_int t.addr_dep_sites
        /. float_of_int (max 1 t.instructions)) );
    ( "potential ctrl deps",
      Printf.sprintf "%d (%.1f%%)" t.ctrl_dep_sites
        (100.0 *. float_of_int t.ctrl_dep_sites
        /. float_of_int (max 1 t.instructions)) );
    ("bytes read / written", Printf.sprintf "%d / %d" t.bytes_read t.bytes_written);
    ("source / sink bytes", Printf.sprintf "%d / %d" t.source_bytes t.sink_bytes);
    ("distinct program points", string_of_int t.distinct_pcs);
  ]

let pp ppf t =
  List.iter
    (fun (label, value) -> Format.fprintf ppf "%-26s %s@." label value)
    (to_rows t);
  Format.fprintf ppf "%-26s" "hottest pcs";
  List.iter (fun (pc, n) -> Format.fprintf ppf " %d:%d" pc n) t.hottest;
  Format.pp_print_newline ppf ()

(* -- loop profile ----------------------------------------------------- *)

module Cfg = Mitos_flow.Cfg

type loop_info = {
  header_pc : int;
  first_pc : int;
  last_pc : int;
  iterations : int;
  body_instructions : int;
}

let loop_profile trace =
  let prog = Trace.program trace in
  let cfg = Cfg.build prog in
  let counts = Hashtbl.create 256 in
  Trace.iter trace (fun (r : Machine.exec_record) ->
      Hashtbl.replace counts r.pc
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts r.pc)));
  let count pc = Option.value ~default:0 (Hashtbl.find_opt counts pc) in
  let blocks = Cfg.blocks cfg in
  Cfg.loops cfg
  |> List.map (fun (l : Cfg.loop) ->
         let header = blocks.(l.Cfg.header) in
         let latch = blocks.(l.Cfg.back_edge_from) in
         let first_pc =
           List.fold_left
             (fun acc b -> min acc blocks.(b).Cfg.first)
             header.Cfg.first l.Cfg.body
         in
         let last_pc =
           List.fold_left
             (fun acc b -> max acc blocks.(b).Cfg.last)
             header.Cfg.last l.Cfg.body
         in
         let body_instructions =
           List.fold_left
             (fun acc b ->
               let blk = blocks.(b) in
               let s = ref 0 in
               for pc = blk.Cfg.first to blk.Cfg.last do
                 s := !s + count pc
               done;
               acc + !s)
             0 l.Cfg.body
         in
         {
           header_pc = header.Cfg.first;
           first_pc;
           last_pc;
           iterations = count latch.Cfg.last;
           body_instructions;
         })
  |> List.sort (fun a b -> Int.compare b.body_instructions a.body_instructions)

let syscall_histogram trace =
  let counts = Hashtbl.create 16 in
  Trace.iter trace (fun (r : Machine.exec_record) ->
      match r.instr with
      | Instr.Syscall n ->
        Hashtbl.replace counts n
          (1 + Option.value ~default:0 (Hashtbl.find_opt counts n))
      | _ -> ());
  Hashtbl.fold (fun n c acc -> (n, c) :: acc) counts []
  |> List.sort (fun (_, a) (_, b) -> Int.compare b a)
