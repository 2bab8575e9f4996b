module Machine = Mitos_isa.Machine
module Instr = Mitos_isa.Instr

type event =
  | Copy of { srcs : Loc.t list; dsts : Loc.t list }
  | Compute of { srcs : Loc.t list; dsts : Loc.t list }
  | Addr_dep of { addr_srcs : Loc.t list; dsts : Loc.t list }
  | Branch_point of { cond_srcs : Loc.t list; scope_end : int; taken : bool }
  | Indirect_jump of { target_srcs : Loc.t list }
  | Sys_source of { addr : int; len : int; source : int }
  | Sys_sink of { addr : int; len : int; sink : int }
  | Sys_snapshot of { addr : int; len : int; key : int }
  | Sys_clear_reg of int

(* Events of an instruction that touches registers only: a function of
   the instruction, its pc and (for a branch) the outcome alone. *)
let register_events postdom ~pc ~taken = function
  | Instr.Li (rd, _) -> [ Copy { srcs = []; dsts = [ Loc.Reg rd ] } ]
  | Instr.Mov (rd, rs) ->
    [ Copy { srcs = [ Loc.Reg rs ]; dsts = [ Loc.Reg rd ] } ]
  | Instr.Bin (_, rd, rs1, rs2) ->
    [ Compute { srcs = [ Loc.Reg rs1; Loc.Reg rs2 ]; dsts = [ Loc.Reg rd ] } ]
  | Instr.Bini (_, rd, rs, _) ->
    [ Compute { srcs = [ Loc.Reg rs ]; dsts = [ Loc.Reg rd ] } ]
  | Instr.Branch (_, rs1, rs2, _) ->
    [
      Branch_point
        {
          cond_srcs = [ Loc.Reg rs1; Loc.Reg rs2 ];
          scope_end = Postdom.scope_end postdom pc;
          taken;
        };
    ]
  | Instr.Jr rs -> [ Indirect_jump { target_srcs = [ Loc.Reg rs ] } ]
  | Instr.Load _ | Instr.Store _ | Instr.Syscall _ | Instr.Jmp _ | Instr.Nop
  | Instr.Halt ->
    []

(* [create] builds the register-only events of every pc once, and a
   branch's once per outcome; all records of that instruction share
   those immutable lists. [code] is a private copy of the program, so
   the cache always describes the instructions it is checked against. *)
type t = {
  postdom : Postdom.t;
  code : Instr.t array;
  not_taken : event list array;  (* a branch's not-taken events; the rest *)
  taken : event list array;  (* a branch's taken events; the rest *)
}

let create prog =
  let postdom = Postdom.compute prog in
  let code = Array.copy (Mitos_isa.Program.code prog) in
  let not_taken =
    Array.mapi (fun pc instr -> register_events postdom ~pc ~taken:false instr) code
  in
  let taken =
    Array.mapi
      (fun pc instr ->
        if Instr.is_branch instr then register_events postdom ~pc ~taken:true instr
        else not_taken.(pc))
      code
  in
  { postdom; code; not_taken; taken }

let postdom t = t.postdom

let sys_events effects =
  List.concat_map
    (function
      | Machine.Sys_wrote_mem { addr; len; source } ->
        [ Sys_source { addr; len; source } ]
      | Machine.Sys_read_mem { addr; len; sink } -> [ Sys_sink { addr; len; sink } ]
      | Machine.Sys_snapshot_mem { addr; len; key } ->
        [ Sys_snapshot { addr; len; key } ]
      | Machine.Sys_set_reg { reg } -> [ Sys_clear_reg reg ]
      | Machine.Sys_halt -> [])
    effects

let events_of_record t (r : Machine.exec_record) =
  match r.instr with
  | Instr.Load (w, rd, rb, _) ->
    let srcs = Loc.mem_range r.mem_addr (Instr.bytes_of_width w) in
    [
      Copy { srcs; dsts = [ Loc.Reg rd ] };
      Addr_dep { addr_srcs = [ Loc.Reg rb ]; dsts = [ Loc.Reg rd ] };
    ]
  | Instr.Store (w, rs, rb, _) ->
    let dsts = Loc.mem_range r.mem_addr (Instr.bytes_of_width w) in
    [
      Copy { srcs = [ Loc.Reg rs ]; dsts };
      Addr_dep { addr_srcs = [ Loc.Reg rb ]; dsts };
    ]
  | Instr.Syscall _ -> sys_events r.sys_effects
  | instr ->
    let pc = r.pc in
    if pc >= 0 && pc < Array.length t.code && Instr.equal instr t.code.(pc) then
      if r.taken then t.taken.(pc) else t.not_taken.(pc)
    else register_events t.postdom ~pc ~taken:r.taken instr

let program_writes (r : Machine.exec_record) =
  match r.instr with
  | Instr.Store (w, _, _, _) -> Loc.mem_range r.mem_addr (Instr.bytes_of_width w)
  | instr -> (
    match Instr.write_reg instr with -1 -> [] | reg -> [ Loc.Reg reg ])

let written_locs (r : Machine.exec_record) =
  let sys =
    List.concat_map
      (function
        | Machine.Sys_wrote_mem { addr; len; _ } -> Loc.mem_range addr len
        | Machine.Sys_set_reg { reg } -> [ Loc.Reg reg ]
        | Machine.Sys_read_mem _ | Machine.Sys_snapshot_mem _
        | Machine.Sys_halt ->
          [])
      r.sys_effects
  in
  program_writes r @ sys

let pp_locs ppf locs =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
    Loc.pp ppf locs

let pp_event ppf = function
  | Copy { srcs; dsts } ->
    Format.fprintf ppf "copy %a -> %a" pp_locs srcs pp_locs dsts
  | Compute { srcs; dsts } ->
    Format.fprintf ppf "compute %a -> %a" pp_locs srcs pp_locs dsts
  | Addr_dep { addr_srcs; dsts } ->
    Format.fprintf ppf "addr-dep %a -> %a" pp_locs addr_srcs pp_locs dsts
  | Branch_point { cond_srcs; scope_end; taken } ->
    Format.fprintf ppf "branch %a scope-end=%d taken=%b" pp_locs cond_srcs
      scope_end taken
  | Indirect_jump { target_srcs } ->
    Format.fprintf ppf "ijump %a" pp_locs target_srcs
  | Sys_source { addr; len; source } ->
    Format.fprintf ppf "source@%d+%d src=%d" addr len source
  | Sys_sink { addr; len; sink } ->
    Format.fprintf ppf "sink@%d+%d sink=%d" addr len sink
  | Sys_snapshot { addr; len; key } ->
    Format.fprintf ppf "snapshot@%d+%d key=%d" addr len key
  | Sys_clear_reg r -> Format.fprintf ppf "clear r%d" r
