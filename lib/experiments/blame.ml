open Mitos_tag
open Mitos_dift
module Audit = Mitos_obs.Audit
module Table = Mitos_util.Table
module Pool = Mitos_parallel.Pool
module W = Mitos_workload

type direction = Over | Under

let direction_to_string = function Over -> "over" | Under -> "under"

type finding = {
  case : string;
  addr : int;
  tag : string;
  direction : direction;
  blamed : int list;
}

type summary = {
  findings : finding list;
  attributed : int;
  total : int;
  audit : Audit.t;
}

(* -- taint sets ------------------------------------------------------ *)

(* The final memory taint as a sorted (addr, tag) set; registers are
   transient scratch state and not part of the over/under accounting
   (matching how Validation and the paper count tainted bytes). *)
let taint_set shadow =
  let acc = ref [] in
  Shadow.iter_tainted shadow (fun addr tags ->
      List.iter (fun tag -> acc := (addr, Tag.to_string tag) :: !acc) tags);
  List.sort_uniq compare !acc

let set_diff a b =
  let in_b = Hashtbl.create 64 in
  List.iter (fun x -> Hashtbl.replace in_b x ()) b;
  List.filter (fun x -> not (Hashtbl.mem in_b x)) a

(* -- attribution index ---------------------------------------------- *)

(* Per audit-log segment: which record ids blocked / propagated /
   evicted each tag. Decision records carry the per-tag verdicts;
   Eviction records explain taint removed behind the policy's back;
   Selection and Note records carry no per-tag evidence beyond what
   the Decision records already state. *)
type index = {
  blocked : (string, int list) Hashtbl.t;  (* ids, newest first *)
  propagated : (string, int list) Hashtbl.t;
  evicted : (string, int list) Hashtbl.t;
}

let index_add tbl tag id =
  let prev = Option.value ~default:[] (Hashtbl.find_opt tbl tag) in
  match prev with
  | last :: _ when last = id -> ()
  | _ -> Hashtbl.replace tbl tag (id :: prev)

let index_segment records ~lo ~hi =
  let idx =
    {
      blocked = Hashtbl.create 16;
      propagated = Hashtbl.create 16;
      evicted = Hashtbl.create 16;
    }
  in
  Array.iter
    (fun (r : Audit.record) ->
      if r.id >= lo && r.id < hi then
        match r.body with
        | Audit.Decision { tags; _ } ->
          List.iter
            (fun (td : Audit.tag_decision) ->
              match td.verdict with
              | Audit.Propagate -> index_add idx.propagated td.tag r.id
              | Audit.Block -> index_add idx.blocked td.tag r.id)
            tags
        | Audit.Eviction { victim; _ } -> index_add idx.evicted victim r.id
        | Audit.Selection _ | Audit.Note _ -> ())
    records;
  idx

let ids_for idx direction tag =
  let get tbl = Option.value ~default:[] (Hashtbl.find_opt tbl tag) in
  let ids =
    match direction with
    | Under -> get idx.blocked @ get idx.evicted
    | Over -> get idx.propagated
  in
  List.sort_uniq Int.compare ids

(* One case/workload segment: diff the audited run's final taint
   against the two oracles and attribute each differing byte.

   Ground truth bounds: [full] (propagate-all) is the reachability
   upper bound — taint present there but missing from the audited run
   is {e under}-tainting; [direct] (faros) is the direct-flow lower
   bound — taint beyond it arrived through an indirect-flow decision
   and is accounted as {e over} (each such byte must trace back to a
   Propagate record, which is exactly the explainability contract). *)
let findings_of_segment ~case ~idx ~actual ~full ~direct =
  let under =
    set_diff full actual
    |> List.map (fun (addr, tag) ->
           { case; addr; tag; direction = Under; blamed = ids_for idx Under tag })
  in
  let over =
    set_diff actual direct
    |> List.map (fun (addr, tag) ->
           { case; addr; tag; direction = Over; blamed = ids_for idx Over tag })
  in
  over @ under

let summarize audit findings =
  {
    findings;
    attributed = List.length (List.filter (fun f -> f.blamed <> []) findings);
    total = List.length findings;
    audit;
  }

(* -- litmus ---------------------------------------------------------- *)

let litmus ?(capacity = 65536) ?sink ?pool params =
  let audit = Audit.create ~capacity ?sink () in
  let n = List.length Litmus.cases in
  (* the audited run is sequential: every case appends to one shared
     log, whose per-case segments are delimited by the note records *)
  let bounds = Array.make (n + 1) 0 in
  let idx = ref 0 in
  let instrument engine =
    let i = !idx in
    incr idx;
    bounds.(i) <- Audit.next_id audit;
    Audit.record_note audit
      ("case:" ^ (List.nth Litmus.cases i).Litmus.case_name);
    Engine.instrument ~audit engine Mitos_obs.Obs.disabled
  in
  let details = Litmus.run_detailed ~instrument (Policies.mitos params) in
  bounds.(n) <- Audit.next_id audit;
  let oracles =
    Pool.map_opt pool
      ~f:(fun policy ->
        List.map
          (fun (d : Litmus.detail) -> taint_set (Engine.shadow d.engine))
          (Litmus.run_detailed policy))
      [ Policies.propagate_all; Policies.faros ]
  in
  let full, direct =
    match oracles with [ f; d ] -> (f, d) | _ -> assert false
  in
  let records = Audit.records audit in
  let findings =
    List.concat
      (List.mapi
         (fun i (d : Litmus.detail) ->
           findings_of_segment ~case:d.Litmus.detail_case.Litmus.case_name
             ~idx:
               (index_segment records ~lo:bounds.(i) ~hi:bounds.(i + 1))
             ~actual:(taint_set (Engine.shadow d.Litmus.engine))
             ~full:(List.nth full i) ~direct:(List.nth direct i))
         details)
  in
  summarize audit findings

(* -- workloads ------------------------------------------------------- *)

let workload ?(capacity = 65536) ?sink ?pool ?config ?max_steps ~name params
    build =
  let audit = Audit.create ~capacity ?sink () in
  Audit.record_note audit ("workload:" ^ name);
  let engine =
    W.Workload.run_live ?config ?max_steps ~audit
      ~policy:(Policies.mitos params) (build ())
  in
  let oracles =
    Pool.map_opt pool
      ~f:(fun policy ->
        taint_set
          (Engine.shadow (W.Workload.run_live ?config ?max_steps ~policy (build ()))))
      [ Policies.propagate_all; Policies.faros ]
  in
  let full, direct =
    match oracles with [ f; d ] -> (f, d) | _ -> assert false
  in
  let records = Audit.records audit in
  let idx = index_segment records ~lo:0 ~hi:(Audit.next_id audit) in
  let findings =
    findings_of_segment ~case:name ~idx
      ~actual:(taint_set (Engine.shadow engine))
      ~full ~direct
  in
  summarize audit findings

(* -- ranked summary & report ---------------------------------------- *)

(* pc of each record id, for the per-pc ranking *)
let pc_index records =
  let tbl = Hashtbl.create 256 in
  Array.iter
    (fun (r : Audit.record) -> Hashtbl.replace tbl r.id r.pc)
    records;
  tbl

(* (direction, tag, pc) -> bytes whose blame includes a decision at
   that pc. A byte blamed on records at k distinct pcs counts toward
   each — the ranking answers "which sites should I look at". *)
let ranked summary =
  let pcs = pc_index (Audit.records summary.audit) in
  let cells = Hashtbl.create 64 in
  List.iter
    (fun f ->
      let f_pcs =
        List.filter_map (fun id -> Hashtbl.find_opt pcs id) f.blamed
        |> List.sort_uniq Int.compare
      in
      List.iter
        (fun pc ->
          let key = (f.direction, f.tag, pc) in
          let bytes, ids =
            Option.value ~default:(0, []) (Hashtbl.find_opt cells key)
          in
          Hashtbl.replace cells key (bytes + 1, f.blamed @ ids))
        f_pcs)
    summary.findings;
  Hashtbl.fold
    (fun (dir, tag, pc) (bytes, ids) acc ->
      (dir, tag, pc, bytes, List.sort_uniq Int.compare ids) :: acc)
    cells []
  |> List.sort (fun (d1, t1, p1, b1, _) (d2, t2, p2, b2, _) ->
         match Int.compare b2 b1 with
         | 0 -> compare (d1, t1, p1) (d2, t2, p2)
         | c -> c)

let max_finding_rows = 40

let fmt_ids ids =
  let shown = List.filteri (fun i _ -> i < 6) ids in
  String.concat "," (List.map string_of_int shown)
  ^ if List.length ids > 6 then Printf.sprintf ",+%d" (List.length ids - 6) else ""

let report ~title summary =
  let r = Report.create ~title in
  let over, under =
    List.partition (fun f -> f.direction = Over) summary.findings
  in
  Report.textf r
    "%d over-tainted (beyond direct flows) and %d under-tainted \
     (vs. propagate-all) byte/tag pairs; %d/%d attributed to decision \
     records or evictions (%.0f%%). Audit log: %d records (%d dropped)."
    (List.length over) (List.length under) summary.attributed summary.total
    (if summary.total = 0 then 100.0
     else 100.0 *. float_of_int summary.attributed /. float_of_int summary.total)
    (Audit.length summary.audit)
    (Audit.dropped summary.audit);
  if summary.findings <> [] then begin
    let t =
      Table.create
        ~header:[ "case"; "dir"; "addr"; "tag"; "blamed records" ]
        ()
    in
    List.iteri
      (fun i f ->
        if i < max_finding_rows then
          Table.add_row t
            [
              f.case;
              direction_to_string f.direction;
              Printf.sprintf "0x%x" f.addr;
              f.tag;
              (if f.blamed = [] then "UNATTRIBUTED" else fmt_ids f.blamed);
            ])
      summary.findings;
    Report.table r t;
    if List.length summary.findings > max_finding_rows then
      Report.textf r "... %d more findings not shown."
        (List.length summary.findings - max_finding_rows);
    let rt =
      Table.create ~header:[ "dir"; "tag"; "pc"; "bytes"; "records" ] ()
    in
    List.iter
      (fun (dir, tag, pc, bytes, ids) ->
        Table.add_row rt
          [
            direction_to_string dir;
            tag;
            string_of_int pc;
            string_of_int bytes;
            fmt_ids ids;
          ])
      (ranked summary);
    Report.table r rt
  end;
  Report.finish r
