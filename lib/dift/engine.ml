open Mitos_tag
module Machine = Mitos_isa.Machine
module Extract = Mitos_flow.Extract
module Loc = Mitos_flow.Loc

type source_action =
  | Taint of Tag.t * [ `Replace | `Union ]
  | Clear
  | Copy_within of { src : int; extra : Tag.t option }
  | Restore of { key : int; extra : Tag.t option }

type config = {
  m_prov : int;
  eviction : Shadow.eviction_strategy;
  track_ctrl : bool;
  ijump_scope_len : int;
  route_direct_through_policy : bool;
  shadow_backend : Shadow.backend;
}

let default_config =
  {
    m_prov = 10;
    eviction = Shadow.Structural Provenance.Fifo;
    track_ctrl = true;
    ijump_scope_len = 32;
    route_direct_through_policy = false;
    shadow_backend = Shadow.Hashed;
  }

type counters = {
  mutable steps : int;
  mutable direct_events : int;
  mutable indirect_events : int;
  mutable dfp_propagated : int;
  mutable ifp_propagated : int;
  mutable ifp_blocked : int;
  mutable ctrl_scopes_opened : int;
  mutable source_bytes : int;
  mutable sink_tainted_bytes : int;
  mutable shadow_ops : int;
  mutable evictions : int;
  per_type_propagated : int array;
  per_type_blocked : int array;
}

let fresh_counters () =
  {
    steps = 0;
    direct_events = 0;
    indirect_events = 0;
    dfp_propagated = 0;
    ifp_propagated = 0;
    ifp_blocked = 0;
    ctrl_scopes_opened = 0;
    source_bytes = 0;
    sink_tainted_bytes = 0;
    shadow_ops = 0;
    evictions = 0;
    per_type_propagated = Array.make Tag_type.count 0;
    per_type_blocked = Array.make Tag_type.count 0;
  }

(* A control-dependency scope: writes executed while the scope is
   open receive indirect flows from [tags]. [end_pc] is the branch's
   immediate post-dominator; [expires_at_step] bounds scopes whose
   static end is unknown (indirect jumps). *)
type scope = { tags : Tag.t list; end_pc : int; expires_at_step : int }

(* Resolved observability handles: built once in [instrument], so the
   hot path updates instruments directly instead of looking them up by
   name. [None] is the disabled path — a single pointer compare. *)
type instruments = {
  obs : Mitos_obs.Obs.t;
  record_latency : Mitos_obs.Histogram.t;
  records_total : Mitos_obs.Registry.counter;
  ifp_prop : Mitos_obs.Registry.counter array;  (* per Tag_type.to_int *)
  ifp_block : Mitos_obs.Registry.counter array;
  shadow_ops_gauge : Mitos_obs.Registry.gauge;
  scope_depth_gauge : Mitos_obs.Registry.gauge;
  evictions_total : Mitos_obs.Registry.counter;
}

type alert = {
  alert_addr : int;
  alert_step : int;
  alert_types : Tag_type.t * Tag_type.t;
}

type arrival = { arr_tag : Tag.t; arr_step : int; arr_via : string }

type t = {
  config : config;
  policy : Policy.t;
  source_tag : source:int -> source_action;
  extract : Extract.t;
  mutable machine : Machine.t option;
  mutable shadow : Shadow.t option;
  mutable scopes : scope list;
  counters : counters;
  mutable record_hooks : (Machine.exec_record -> unit) list;
  mutable watches : (Tag_type.t * Tag_type.t) list;
  alerted : (int * int, unit) Hashtbl.t; (* (addr, watch index) *)
  mutable rev_alerts : alert list;
  mutable current_step : int;
  mutable current_pc : int;
  site_profile : (int, int ref * int ref) Hashtbl.t; (* pc -> (prop, blocked) *)
  sink_stats : (int, Tag_stats.t) Hashtbl.t;
  snapshots : (int, Tag.t list array) Hashtbl.t;
  mutable history_on : bool;
  history : (int, arrival list ref) Hashtbl.t; (* newest first *)
  mutable instruments : instruments option;
  mutable audit : Mitos_obs.Audit.t option;
}

let create ?(config = default_config) ~policy ~source_tag prog =
  {
    config;
    policy;
    source_tag;
    extract = Extract.create prog;
    machine = None;
    shadow = None;
    scopes = [];
    counters = fresh_counters ();
    record_hooks = [];
    watches = [];
    alerted = Hashtbl.create 64;
    rev_alerts = [];
    current_step = 0;
    current_pc = 0;
    site_profile = Hashtbl.create 64;
    sink_stats = Hashtbl.create 8;
    snapshots = Hashtbl.create 8;
    history_on = false;
    history = Hashtbl.create 256;
    instruments = None;
    audit = None;
  }

(* Count every provenance-list eviction — taint removed behind the
   policy's back is the one cause of undertainting no decision record
   explains — and surface it into the flight recorder when auditing.
   The closure consults [t.audit]/[t.instruments] at event time, so
   installing it once at shadow-attach covers any instrument order. *)
let install_evict_observer t shadow =
  Shadow.on_evict shadow
    (Some
       (fun (e : Shadow.evict_event) ->
         t.counters.evictions <- t.counters.evictions + 1;
         (match t.instruments with
         | Some ins -> Mitos_obs.Registry.incr ins.evictions_total
         | None -> ());
         match t.audit with
         | None -> ()
         | Some recorder ->
           let at =
             match e.at with
             | `Mem addr -> "mem:" ^ string_of_int addr
             | `Reg r -> "reg:" ^ string_of_int r
           in
           Mitos_obs.Audit.record_eviction recorder ~step:t.current_step
             ~pc:t.current_pc ~at
             ~victim:(Tag.to_string e.victim)
             ~incoming:(Tag.to_string e.incoming)
             ()))

let attach_shadow t ~mem_size =
  let shadow =
    Shadow.create ~strategy:t.config.eviction ~backend:t.config.shadow_backend
      ~mem_capacity:mem_size
      ~num_regs:Mitos_isa.Instr.num_regs ~m_prov:t.config.m_prov ()
  in
  t.shadow <- Some shadow;
  install_evict_observer t shadow

let attach_existing_shadow t shadow =
  if Shadow.m_prov shadow <> t.config.m_prov then
    invalid_arg "Engine.attach_existing_shadow: M_prov mismatch";
  t.shadow <- Some shadow;
  install_evict_observer t shadow

let attach t machine =
  attach_shadow t ~mem_size:(Machine.mem_size machine);
  t.machine <- Some machine

let the_shadow t =
  match t.shadow with
  | Some s -> s
  | None -> invalid_arg "Engine: no machine attached"

let shadow = the_shadow
let stats t = Shadow.stats (the_shadow t)
let counters t = t.counters
let policy t = t.policy
let config t = t.config
let active_scopes t = List.length t.scopes
let on_record t f = t.record_hooks <- f :: t.record_hooks

(* -- Observability -------------------------------------------------- *)

let instrument ?(sample_every = 1024) ?audit t obs =
  if sample_every < 1 then invalid_arg "Engine.instrument: sample_every";
  if t.instruments <> None then
    invalid_arg "Engine.instrument: engine already instrumented";
  (* The audit recorder rides the same entry point but is gated on its
     own enabled flag, not the obs context's — auditing a run without
     span tracing (and vice versa) are both valid. *)
  (match audit with
  | Some recorder when Mitos_obs.Audit.enabled recorder ->
    t.audit <- Some recorder;
    (* with a live trace too, cross-link records as instant events *)
    if Mitos_obs.Obs.enabled obs then
      Mitos_obs.Audit.link_tracer recorder (Mitos_obs.Obs.tracer obs)
  | Some _ | None -> ());
  if Mitos_obs.Obs.enabled obs then begin
    let module R = Mitos_obs.Registry in
    let registry = Mitos_obs.Obs.registry obs in
    let per_type verdict =
      Array.init Tag_type.count (fun i ->
          R.counter registry
            ~help:"IFP decisions, per candidate tag type and verdict"
            ~labels:
              [
                ("ty", Tag_type.to_string (Tag_type.of_int i));
                ("verdict", verdict);
              ]
            "mitos_engine_ifp_decisions_total")
    in
    let ins =
      {
        obs;
        record_latency =
          R.histogram registry
            ~help:"process_record latency in clock ticks"
            ~lo:1.0 ~growth:2.0 ~buckets:32
            "mitos_engine_record_latency_ticks";
        records_total =
          R.counter registry ~help:"execution records processed"
            "mitos_engine_records_total";
        ifp_prop = per_type "propagate";
        ifp_block = per_type "block";
        shadow_ops_gauge =
          R.gauge registry ~help:"provenance-list writes so far"
            "mitos_engine_shadow_ops";
        scope_depth_gauge =
          R.gauge registry ~help:"open control-dependency scopes"
            "mitos_engine_scope_depth";
        evictions_total =
          R.counter registry ~help:"provenance-list evictions"
            "mitos_engine_evictions_total";
      }
    in
    t.instruments <- Some ins;
    (* System-level gauges and a trace counter track, sampled every
       [sample_every] records through the ordinary hook mechanism. *)
    let tracer = Mitos_obs.Obs.tracer obs in
    let count = ref 0 in
    on_record t (fun _record ->
        incr count;
        if !count mod sample_every = 0 then begin
          let shadow_ops = float_of_int t.counters.shadow_ops in
          let scope_depth = float_of_int (List.length t.scopes) in
          R.set_gauge ins.shadow_ops_gauge shadow_ops;
          R.set_gauge ins.scope_depth_gauge scope_depth;
          Mitos_obs.Tracer.counter tracer "engine"
            [ ("shadow_ops", shadow_ops); ("scope_depth", scope_depth) ]
        end)
  end

(* -- Taint timelines ------------------------------------------------ *)

let record_history t = t.history_on <- true

let taint_history t addr =
  match Hashtbl.find_opt t.history addr with
  | Some arrivals -> List.rev !arrivals
  | None -> []

(* Log the tags in [tags] that were not already present at [addr]
   (genuine arrivals, not re-copies of resident taint). *)
let log_arrivals t ~before ~addr ~via tags =
  if t.history_on then
    List.iter
      (fun tag ->
        if not (List.exists (Tag.equal tag) before) then begin
          let cell =
            match Hashtbl.find_opt t.history addr with
            | Some c -> c
            | None ->
              let c = ref [] in
              Hashtbl.add t.history addr c;
              c
          in
          cell :=
            { arr_tag = tag; arr_step = t.current_step; arr_via = via }
            :: !cell
        end)
      tags

(* -- Confluence watching ------------------------------------------- *)

let watch_confluence t ty1 ty2 = t.watches <- t.watches @ [ (ty1, ty2) ]

let alerts t = List.rev t.rev_alerts

let first_alert_step t =
  match List.rev t.rev_alerts with
  | [] -> None
  | a :: _ -> Some a.alert_step

let check_confluence_addr t shadow addr =
  List.iteri
    (fun i ((ty1, ty2) as types) ->
      if
        (not (Hashtbl.mem t.alerted (addr, i)))
        && Shadow.addr_has_type shadow addr ty1
        && Shadow.addr_has_type shadow addr ty2
      then begin
        Hashtbl.add t.alerted (addr, i) ();
        t.rev_alerts <-
          { alert_addr = addr; alert_step = t.current_step; alert_types = types }
          :: t.rev_alerts
      end)
    t.watches

let check_confluence_loc t shadow = function
  | Loc.Reg _ -> ()
  | Loc.Mem addr -> if t.watches <> [] then check_confluence_addr t shadow addr

(* -- Tag gathering ------------------------------------------------- *)

let tags_of_loc shadow = function
  | Loc.Reg r -> Shadow.tags_of_reg shadow r
  | Loc.Mem a -> Shadow.tags_of_addr shadow a

(* Unions of tag lists, order-preserving (earlier lists first, each in
   its own order), deduplicated. Every list unioned here is a
   provenance list or such a union, so none holds a duplicate: a tag
   need only be checked against [first] and the tags already kept. *)
let rec add_new first extra = function
  | [] -> extra
  | tag :: tags ->
    add_new first
      (if Tag.mem tag first || Tag.mem tag extra then extra else tag :: extra)
      tags

(* [first] itself when the other lists add nothing *)
let with_extra first = function
  | [] -> first
  | extra -> first @ List.rev extra

let rec gather_extra shadow first extra = function
  | [] -> extra
  | src :: srcs ->
    gather_extra shadow first (add_new first extra (tags_of_loc shadow src)) srcs

let gather shadow = function
  | [] -> []
  | [ src ] -> tags_of_loc shadow src
  | src :: srcs ->
    let first = tags_of_loc shadow src in
    with_extra first (gather_extra shadow first [] srcs)

let space_of_loc shadow = function
  | Loc.Reg r -> Shadow.space_left_reg shadow r
  | Loc.Mem a -> Shadow.space_left_addr shadow a

(* Op accounting: one op per provenance entry removed or written.
   Untainted data flowing into untainted locations is free — real DIFT
   implementations (FAROS included) fast-path clean traffic, so this
   is the proxy that makes "time" comparable across policies. *)
let loc_cardinality shadow = function
  | Loc.Reg r -> List.length (Shadow.tags_of_reg shadow r)
  | Loc.Mem a -> List.length (Shadow.tags_of_addr shadow a)

let set_loc_tags t shadow ~via loc tags =
  let old_card = loc_cardinality shadow loc in
  t.counters.shadow_ops <- t.counters.shadow_ops + old_card + List.length tags;
  (match loc with
  | Loc.Reg r -> Shadow.set_reg_tags shadow r tags
  | Loc.Mem a ->
    if t.history_on then
      log_arrivals t ~before:(Shadow.tags_of_addr shadow a) ~addr:a ~via tags;
    Shadow.set_addr_tags shadow a tags);
  check_confluence_loc t shadow loc

let rec set_all t shadow ~via tags = function
  | [] -> ()
  | dst :: dsts ->
    set_loc_tags t shadow ~via dst tags;
    set_all t shadow ~via tags dsts

let union_loc_tags t shadow ~via loc tags =
  if tags <> [] then begin
    t.counters.shadow_ops <- t.counters.shadow_ops + List.length tags;
    (match loc with
    | Loc.Reg r -> Shadow.union_into_reg shadow r tags
    | Loc.Mem a ->
      if t.history_on then
        log_arrivals t ~before:(Shadow.tags_of_addr shadow a) ~addr:a ~via
          tags;
      Shadow.union_into_addr shadow a tags);
    check_confluence_loc t shadow loc
  end

(* -- Policy consultation ------------------------------------------- *)

let consult t shadow ~kind ~candidates ~space ~width ~step =
  (match t.audit with
  | None -> ()
  | Some recorder ->
    (* stamp the flow context so Decision records emitted under this
       consultation carry the right step/pc/kind *)
    Mitos_obs.Audit.set_context recorder ~step ~pc:t.current_pc
      ~flow:(Policy.flow_kind_to_string kind) ());
  let request =
    {
      Policy.kind;
      candidates;
      space;
      width;
      stats = Shadow.stats shadow;
      step;
    }
  in
  Policy.select t.policy request

let site_cell t =
  match Hashtbl.find_opt t.site_profile t.current_pc with
  | Some cell -> cell
  | None ->
    let cell = (ref 0, ref 0) in
    Hashtbl.add t.site_profile t.current_pc cell;
    cell

let count_ifp t ~candidates ~chosen =
  let site_prop, site_block = site_cell t in
  List.iter
    (fun tag ->
      let ti = Tag_type.to_int (Tag.ty tag) in
      let propagated = Tag.mem tag chosen in
      if propagated then begin
        t.counters.ifp_propagated <- t.counters.ifp_propagated + 1;
        incr site_prop;
        t.counters.per_type_propagated.(ti) <-
          t.counters.per_type_propagated.(ti) + 1
      end
      else begin
        t.counters.ifp_blocked <- t.counters.ifp_blocked + 1;
        incr site_block;
        t.counters.per_type_blocked.(ti) <- t.counters.per_type_blocked.(ti) + 1
      end;
      match t.instruments with
      | None -> ()
      | Some ins ->
        Mitos_obs.Registry.incr
          (if propagated then ins.ifp_prop.(ti) else ins.ifp_block.(ti)))
    candidates

let site_profile t =
  Hashtbl.fold
    (fun pc (prop, blocked) acc -> (pc, !prop, !blocked) :: acc)
    t.site_profile []
  |> List.sort (fun (_, p1, b1) (_, p2, b2) ->
         Int.compare (p2 + b2) (p1 + b1))

(* Apply an indirect flow of [candidates] into [dst]. *)
let apply_indirect t shadow ~kind ~width ~step candidates dst =
  if candidates <> [] then begin
    t.counters.indirect_events <- t.counters.indirect_events + 1;
    let space = space_of_loc shadow dst in
    let chosen = consult t shadow ~kind ~candidates ~space ~width ~step in
    count_ifp t ~candidates ~chosen;
    union_loc_tags t shadow ~via:(Policy.flow_kind_to_string kind) dst chosen
  end

(* Apply a direct flow: replace semantics. *)
let apply_direct t shadow ~kind ~width ~step srcs dsts =
  t.counters.direct_events <- t.counters.direct_events + 1;
  let tags = gather shadow srcs in
  let chosen =
    if t.config.route_direct_through_policy then begin
      (* Replace semantics frees the whole list first. *)
      let chosen =
        consult t shadow ~kind ~candidates:tags ~space:t.config.m_prov ~width
          ~step
      in
      count_ifp t ~candidates:tags ~chosen;
      chosen
    end
    else tags
  in
  t.counters.dfp_propagated <-
    t.counters.dfp_propagated + (List.length chosen * List.length dsts);
  set_all t shadow ~via:(Policy.flow_kind_to_string kind) chosen dsts

let width_of_record (r : Machine.exec_record) =
  match (r.mem_read, r.mem_write) with
  | Some (_, len), _ | _, Some (_, len) -> len
  | None, None -> 0

(* -- Scope management ---------------------------------------------- *)

let closes ~pc ~step scope = scope.end_pc = pc || step >= scope.expires_at_step

let rec any_closes ~pc ~step = function
  | [] -> false
  | scope :: scopes -> closes ~pc ~step scope || any_closes ~pc ~step scopes

let pop_scopes t ~pc ~step =
  if any_closes ~pc ~step t.scopes then
    t.scopes <- List.filter (fun scope -> not (closes ~pc ~step scope)) t.scopes

let push_scope t ~tags ~end_pc ~expires_at_step =
  if tags <> [] then begin
    t.counters.ctrl_scopes_opened <- t.counters.ctrl_scopes_opened + 1;
    t.scopes <- { tags; end_pc; expires_at_step } :: t.scopes
  end

let rec scope_extra first extra = function
  | [] -> extra
  | scope :: scopes -> scope_extra first (add_new first extra scope.tags) scopes

let scope_tags t =
  match t.scopes with
  | [] -> []
  | [ scope ] -> scope.tags
  | scope :: scopes -> with_extra scope.tags (scope_extra scope.tags [] scopes)

(* Program-level writes of a record (registers + memory, excluding
   syscall effects, which carry their own taint semantics). *)
let program_writes (r : Machine.exec_record) =
  let regs =
    match r.reg_write with Some (reg, _) -> [ Loc.Reg reg ] | None -> []
  in
  let mems =
    match r.mem_write with
    | Some (addr, len) -> Loc.mem_range addr len
    | None -> []
  in
  regs @ mems

(* -- Sources and sinks --------------------------------------------- *)

let apply_source t shadow ~addr ~len ~source =
  match t.source_tag ~source with
  | Clear ->
    for a = addr to addr + len - 1 do
      let old = List.length (Shadow.tags_of_addr shadow a) in
      t.counters.shadow_ops <- t.counters.shadow_ops + old;
      Shadow.clear_addr shadow a
    done
  | Taint (tag, `Replace) ->
    for a = addr to addr + len - 1 do
      let before = Shadow.tags_of_addr shadow a in
      t.counters.shadow_ops <-
        t.counters.shadow_ops + List.length before + 1;
      log_arrivals t ~before ~addr:a ~via:"source" [ tag ];
      Shadow.set_addr_tags shadow a [ tag ];
      if t.watches <> [] then check_confluence_addr t shadow a
    done;
    t.counters.source_bytes <- t.counters.source_bytes + len
  | Taint (tag, `Union) ->
    for a = addr to addr + len - 1 do
      log_arrivals t ~before:(Shadow.tags_of_addr shadow a) ~addr:a
        ~via:"source" [ tag ];
      Shadow.union_into_addr shadow a [ tag ];
      if t.watches <> [] then check_confluence_addr t shadow a
    done;
    t.counters.source_bytes <- t.counters.source_bytes + len;
    t.counters.shadow_ops <- t.counters.shadow_ops + len
  | Copy_within { src; extra } ->
    (* data copied from elsewhere in memory by the OS (proc_read):
       provenance travels with it, optionally gaining a tag for the
       crossing (the paper's Fig. 2 accumulation) *)
    for i = 0 to len - 1 do
      let from_tags = Shadow.tags_of_addr shadow (src + i) in
      let tags =
        match extra with
        | Some tag -> from_tags @ [ tag ]
        | None -> from_tags
      in
      let a = addr + i in
      let before = Shadow.tags_of_addr shadow a in
      t.counters.shadow_ops <-
        t.counters.shadow_ops + List.length before + List.length tags;
      log_arrivals t ~before ~addr:a ~via:"source" tags;
      Shadow.set_addr_tags shadow a tags;
      if tags <> [] then
        t.counters.source_bytes <- t.counters.source_bytes + 1;
      if t.watches <> [] then check_confluence_addr t shadow a
    done
  | Restore { key; extra } ->
    (* data materialized from captured storage (file read-back):
       restore the content's taint as of the capture, plus the
       storage-crossing tag *)
    let stored = Hashtbl.find_opt t.snapshots key in
    for i = 0 to len - 1 do
      let from_tags =
        match stored with
        | Some arr when i < Array.length arr -> arr.(i)
        | Some _ | None -> []
      in
      let tags =
        match extra with
        | Some tag -> from_tags @ [ tag ]
        | None -> from_tags
      in
      let a = addr + i in
      let before = Shadow.tags_of_addr shadow a in
      t.counters.shadow_ops <-
        t.counters.shadow_ops + List.length before + List.length tags;
      log_arrivals t ~before ~addr:a ~via:"source" tags;
      Shadow.set_addr_tags shadow a tags;
      if tags <> [] then
        t.counters.source_bytes <- t.counters.source_bytes + 1;
      if t.watches <> [] then check_confluence_addr t shadow a
    done

let sink_cell t sink =
  match Hashtbl.find_opt t.sink_stats sink with
  | Some stats -> stats
  | None ->
    let stats = Tag_stats.create () in
    Hashtbl.add t.sink_stats sink stats;
    stats

let apply_sink t shadow ~addr ~len ~sink =
  let stats = sink_cell t sink in
  for a = addr to addr + len - 1 do
    match Shadow.tags_of_addr shadow a with
    | [] -> ()
    | tags ->
      t.counters.sink_tainted_bytes <- t.counters.sink_tainted_bytes + 1;
      List.iter (Tag_stats.incr stats) tags
  done

let sink_profile t =
  Hashtbl.fold
    (fun sink stats acc -> (sink, Tag_stats.snapshot stats) :: acc)
    t.sink_stats []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

(* -- Main event application ---------------------------------------- *)

let apply_event t shadow ~width ~step (event : Extract.event) =
  match event with
  | Extract.Copy { srcs; dsts } ->
    apply_direct t shadow ~kind:Policy.Direct_copy ~width ~step srcs dsts
  | Extract.Compute { srcs; dsts } ->
    apply_direct t shadow ~kind:Policy.Direct_compute ~width ~step srcs dsts
  | Extract.Addr_dep { addr_srcs; dsts } ->
    let candidates = gather shadow addr_srcs in
    if candidates <> [] then
      List.iter
        (fun dst ->
          apply_indirect t shadow ~kind:Policy.Addr ~width ~step candidates
            dst)
        dsts
  | Extract.Branch_point { cond_srcs; scope_end; taken = _ } ->
    if t.config.track_ctrl then begin
      let candidates = gather shadow cond_srcs in
      push_scope t ~tags:candidates ~end_pc:scope_end
        ~expires_at_step:max_int
    end
  | Extract.Indirect_jump { target_srcs } ->
    if t.config.track_ctrl then begin
      let candidates = gather shadow target_srcs in
      push_scope t ~tags:candidates ~end_pc:(-1)
        ~expires_at_step:(step + t.config.ijump_scope_len)
    end
  | Extract.Sys_source { addr; len; source } ->
    apply_source t shadow ~addr ~len ~source
  | Extract.Sys_sink { addr; len; sink } -> apply_sink t shadow ~addr ~len ~sink
  | Extract.Sys_snapshot { addr; len; key } ->
    Hashtbl.replace t.snapshots key
      (Array.init len (fun i -> Shadow.tags_of_addr shadow (addr + i)))
  | Extract.Sys_clear_reg r ->
    Shadow.clear_reg shadow r;
    t.counters.shadow_ops <- t.counters.shadow_ops + 1

let rec apply_events t shadow ~width ~step = function
  | [] -> ()
  | event :: events ->
    apply_event t shadow ~width ~step event;
    apply_events t shadow ~width ~step events

let rec run_hooks r = function
  | [] -> ()
  | f :: fs ->
    f r;
    run_hooks r fs

let process_record_inner t (r : Machine.exec_record) =
  let shadow = the_shadow t in
  let step = r.step in
  t.current_step <- step;
  t.current_pc <- r.pc;
  pop_scopes t ~pc:r.pc ~step;
  let width = width_of_record r in
  apply_events t shadow ~width ~step (Extract.events_of_record t.extract r);
  (* Control dependencies: writes under open scopes receive the scope
     tags as indirect flows. *)
  (match t.scopes with
  | _ :: _ when t.config.track_ctrl -> (
    match scope_tags t with
    | [] -> ()
    | candidates ->
      List.iter
        (fun dst ->
          apply_indirect t shadow ~kind:Policy.Ctrl ~width ~step candidates dst)
        (program_writes r))
  | _ -> ());
  t.counters.steps <- t.counters.steps + 1;
  run_hooks r t.record_hooks

let process_record t r =
  match t.instruments with
  | None -> process_record_inner t r
  | Some ins ->
    let t0 = Mitos_obs.Obs.now ins.obs in
    process_record_inner t r;
    Mitos_obs.Histogram.observe ins.record_latency
      (float_of_int (Mitos_obs.Obs.now ins.obs - t0));
    Mitos_obs.Registry.incr ins.records_total

let step t =
  match t.machine with
  | None -> invalid_arg "Engine.step: no machine attached"
  | Some machine -> (
    match Machine.step machine with
    | None -> false
    | Some record ->
      process_record t record;
      true)

let run ?(max_steps = 10_000_000) t =
  let n = ref 0 in
  while !n < max_steps && step t do
    incr n
  done;
  !n

(* -- Progress -------------------------------------------------------- *)

type progress = {
  prog_step : int;
  prog_pc : int;
  prog_direct_events : int;
  prog_indirect_events : int;
  prog_dfp_propagated : int;
  prog_ifp_propagated : int;
  prog_ifp_blocked : int;
  prog_shadow_ops : int;
  prog_evictions : int;
  prog_open_scopes : int;
  prog_source_bytes : int;
  prog_sink_tainted_bytes : int;
}

let progress t =
  {
    prog_step = t.counters.steps;
    prog_pc = t.current_pc;
    prog_direct_events = t.counters.direct_events;
    prog_indirect_events = t.counters.indirect_events;
    prog_dfp_propagated = t.counters.dfp_propagated;
    prog_ifp_propagated = t.counters.ifp_propagated;
    prog_ifp_blocked = t.counters.ifp_blocked;
    prog_shadow_ops = t.counters.shadow_ops;
    prog_evictions = t.counters.evictions;
    prog_open_scopes = List.length t.scopes;
    prog_source_bytes = t.counters.source_bytes;
    prog_sink_tainted_bytes = t.counters.sink_tainted_bytes;
  }
