(* The one SLO engine: threshold rules ([--slo]) and multi-window
   multi-burn-rate rules ([--burn-slo], Google-SRE style) judged over
   one bounded Tsdb. Burn rate of a window = (fraction of the window's
   samples violating the objective) / error budget; a window pair is
   active when both its fast and slow burn clear the pair's threshold.
   Rule state is an explicit machine whose transitions depend only on
   the observed (at, value) stream — see DESIGN §15. *)

type cmp = Le | Lt | Ge | Gt

let cmp_to_string = function
  | Le -> "<="
  | Lt -> "<"
  | Ge -> ">="
  | Gt -> ">"

let holds cmp value bound =
  match cmp with
  | Le -> value <= bound
  | Lt -> value < bound
  | Ge -> value >= bound
  | Gt -> value > bound

type severity = Ticket | Page

let severity_to_string = function Page -> "page" | Ticket -> "ticket"
let severity_rank = function Page -> 2 | Ticket -> 1

let severity_of_string = function
  | "page" -> Ok Page
  | "ticket" -> Ok Ticket
  | s -> Error (Printf.sprintf "unknown severity %S (want page|ticket)" s)

let worse a b = if severity_rank a >= severity_rank b then a else b

type window_pair = {
  fast : float;
  slow : float;
  burn : float;
  pair_severity : severity;
}

type burn = {
  budget : float;
  windows : window_pair list;
  for_ : float;
  keep_firing : float;
}

type rule = {
  alert_name : string;
  signal : string;
  cmp : cmp;
  objective : float;
  burn_rate : burn option;
}

(* The classic SRE pairs, scaled to the 1-unit-per-observation clock
   the CLI tick drives: a fast page pair and a slower ticket pair. *)
let default_windows =
  [
    { fast = 60.0; slow = 300.0; burn = 14.4; pair_severity = Page };
    { fast = 300.0; slow = 3600.0; burn = 6.0; pair_severity = Ticket };
  ]

let threshold ?name ~signal ~cmp ~bound () =
  if Float.is_nan bound then invalid_arg "Alerts.threshold: NaN bound";
  let alert_name = Option.value name ~default:signal in
  { alert_name; signal; cmp; objective = bound; burn_rate = None }

let rule ?name ?(budget = 0.01) ?(windows = default_windows) ?(for_ = 0.0)
    ?(keep_firing = 0.0) ~signal ~cmp ~objective () =
  let number what v =
    if Float.is_nan v then invalid_arg ("Alerts.rule: NaN " ^ what)
  in
  number "objective" objective;
  number "budget" budget;
  number "for" for_;
  number "keep" keep_firing;
  if not (budget > 0.0) then invalid_arg "Alerts.rule: non-positive budget";
  if windows = [] then invalid_arg "Alerts.rule: no window pairs";
  List.iter
    (fun w ->
      number "fast window" w.fast;
      number "slow window" w.slow;
      number "burn threshold" w.burn;
      if not (w.fast > 0.0) then invalid_arg "Alerts.rule: non-positive fast";
      if w.slow < w.fast then invalid_arg "Alerts.rule: slow shorter than fast";
      if not (w.burn > 0.0) then
        invalid_arg "Alerts.rule: non-positive burn threshold")
    windows;
  if for_ < 0.0 then invalid_arg "Alerts.rule: negative for";
  if keep_firing < 0.0 then invalid_arg "Alerts.rule: negative keep";
  let alert_name = Option.value name ~default:signal in
  {
    alert_name;
    signal;
    cmp;
    objective;
    burn_rate = Some { budget; windows; for_; keep_firing };
  }

(* -- grammar ------------------------------------------------------------ *)

let window_pair_to_string w =
  Printf.sprintf "%s/%s@%s@%s" (Registry.fmt_value w.fast)
    (Registry.fmt_value w.slow) (Registry.fmt_value w.burn)
    (severity_to_string w.pair_severity)

let objective_to_string r =
  Printf.sprintf "%s%s%s" r.signal (cmp_to_string r.cmp)
    (Registry.fmt_value r.objective)

let rule_to_string r =
  let prefix = if r.alert_name = r.signal then "" else r.alert_name ^ ":" in
  let head = prefix ^ objective_to_string r in
  match r.burn_rate with
  | None -> head
  | Some b ->
    Printf.sprintf "%s;budget=%s;windows=%s;for=%s;keep=%s" head
      (Registry.fmt_value b.budget)
      (String.concat "," (List.map window_pair_to_string b.windows))
      (Registry.fmt_value b.for_)
      (Registry.fmt_value b.keep_firing)

let parse_threshold s =
  let find_op () =
    (* two-char operators first so "<=" does not parse as "<" *)
    let ops = [ ("<=", Le); (">=", Ge); ("<", Lt); (">", Gt) ] in
    let rec at i =
      if i >= String.length s then None
      else
        match
          List.find_opt
            (fun (op, _) ->
              i + String.length op <= String.length s
              && String.sub s i (String.length op) = op)
            ops
        with
        | Some (op, cmp) -> Some (i, op, cmp)
        | None -> at (i + 1)
    in
    at 0
  in
  match find_op () with
  | None -> Error (Printf.sprintf "no comparison in SLO rule %S" s)
  | Some (i, op, cmp) -> (
    let lhs = String.sub s 0 i in
    let rhs =
      String.sub s (i + String.length op)
        (String.length s - i - String.length op)
    in
    let name, signal =
      match String.index_opt lhs ':' with
      | Some colon ->
        ( Some (String.sub lhs 0 colon),
          String.sub lhs (colon + 1) (String.length lhs - colon - 1) )
      | None -> (None, lhs)
    in
    let signal = String.trim signal in
    if signal = "" then Error (Printf.sprintf "no signal in SLO rule %S" s)
    else
      match float_of_string_opt (String.trim rhs) with
      | Some bound when not (Float.is_nan bound) ->
        Ok (threshold ?name ~signal ~cmp ~bound ())
      | Some _ | None -> Error (Printf.sprintf "bad bound in SLO rule %S" s))

let parse_window_pair s =
  let malformed () =
    Error (Printf.sprintf "bad window pair %S (want FAST/SLOW@BURN[@SEV])" s)
  in
  let parts =
    match String.split_on_char '@' s with
    | [ span; burn ] -> Some (span, burn, Ok Page)
    | [ span; burn; sev ] -> Some (span, burn, severity_of_string sev)
    | _ -> None
  in
  match parts with
  | None -> malformed ()
  | Some (_, _, Error e) -> Error e
  | Some (span, burn, Ok pair_severity) -> (
    match String.split_on_char '/' span with
    | [ fast; slow ] -> (
      match
        ( float_of_string_opt (String.trim fast),
          float_of_string_opt (String.trim slow),
          float_of_string_opt (String.trim burn) )
      with
      | Some fast, Some slow, Some burn ->
        Ok { fast; slow; burn; pair_severity }
      | _ -> malformed ())
    | _ -> malformed ())

let rec collect_results = function
  | [] -> Ok []
  | Error e :: _ -> Error e
  | Ok x :: rest -> Result.map (fun xs -> x :: xs) (collect_results rest)

(* [NAME:]SIGNAL(<=|<|>=|>)OBJECTIVE[;budget=B][;windows=F/S@BURN[@SEV],..]
   [;for=D][;keep=K] — the head is the threshold grammar. *)
let parse_rule s =
  match String.split_on_char ';' s with
  | [] -> Error "empty alert rule"
  | head :: opts -> (
    match parse_threshold head with
    | Error e -> Error e
    | Ok h -> (
      let budget = ref 0.01 and windows = ref default_windows in
      let for_ = ref 0.0 and keep = ref 0.0 in
      let parse_opt opt =
        match String.index_opt opt '=' with
        | None -> Error (Printf.sprintf "bad alert option %S (want key=value)" opt)
        | Some eq -> (
          let key = String.trim (String.sub opt 0 eq) in
          let value =
            String.trim
              (String.sub opt (eq + 1) (String.length opt - eq - 1))
          in
          let float_opt cell =
            match float_of_string_opt value with
            | Some v ->
              cell := v;
              Ok ()
            | None -> Error (Printf.sprintf "bad %s in alert rule %S" key s)
          in
          match key with
          | "budget" -> float_opt budget
          | "for" -> float_opt for_
          | "keep" -> float_opt keep
          | "windows" -> (
            match
              collect_results
                (List.map parse_window_pair (String.split_on_char ',' value))
            with
            | Ok [] -> Error (Printf.sprintf "empty windows in %S" s)
            | Ok ws ->
              windows := ws;
              Ok ()
            | Error e -> Error e)
          | _ -> Error (Printf.sprintf "unknown alert option %S" key))
      in
      match collect_results (List.map parse_opt opts) with
      | Error e -> Error e
      | Ok _ -> (
        match
          rule ~name:h.alert_name ~budget:!budget ~windows:!windows
            ~for_:!for_ ~keep_firing:!keep ~signal:h.signal ~cmp:h.cmp
            ~objective:h.objective ()
        with
        | r -> Ok r
        | exception Invalid_argument msg -> Error msg)))

(* -- state machine ------------------------------------------------------ *)

type phase =
  | Inactive
  | Pending of { since : float; severity : severity }
  | Firing of { since : float; last_bad : float; severity : severity }

type transition = To_pending | To_firing | To_resolved | To_cancelled

let transition_to_string = function
  | To_pending -> "pending"
  | To_firing -> "firing"
  | To_resolved -> "resolved"
  | To_cancelled -> "cancelled"

type incident = {
  seq : int;
  at : float;
  alert : string;
  transition : transition;
  severity : severity;
  value : float;
  burn_fast : float;
  burn_slow : float;
}

type breach = { breach_rule : rule; value : float; at : float }

type rule_state = {
  r : rule;
  mutable phase : phase;
  mutable fired_total : int;
  (* burn-rate rules: the signal's latest sample; threshold rules: the
     judged value (latest sample or window mean) *)
  mutable last_value : float option;
  mutable last_burn : float * float;  (* representative (fast, slow) *)
}

type t = {
  tsdb : Tsdb.t;
  window : float;
  states : rule_state list;
  capacity : int;
  (* Both histories keep the *newest* [capacity] entries (unlike the
     audit ring's keep-oldest): they are about what is happening, not
     how the run began, and a flapping rule on a long-lived server
     cannot grow a body without bound. *)
  incidents : incident Queue.t;
  breaches : breach Queue.t;
  mutable incidents_total : int;
  mutable breaches_total : int;
  mutable evals : int;
  mutable tracer : Tracer.t option;
}

let create ?(capacity = 1024) ?(window = 0.0) ~rules () =
  if capacity < 1 then invalid_arg "Alerts.create: non-positive capacity";
  if not (window >= 0.0) then invalid_arg "Alerts.create: negative window";
  {
    tsdb = Tsdb.create ();
    window;
    states =
      List.map
        (fun r ->
          {
            r;
            phase = Inactive;
            fired_total = 0;
            last_value = None;
            last_burn = (0.0, 0.0);
          })
        rules;
    capacity;
    incidents = Queue.create ();
    breaches = Queue.create ();
    incidents_total = 0;
    breaches_total = 0;
    evals = 0;
    tracer = None;
  }

let tsdb t = t.tsdb

let phase_of t name =
  List.find_map
    (fun st -> if st.r.alert_name = name then Some st.phase else None)
    t.states

let incidents_total t = t.incidents_total
let link_tracer t tracer = t.tracer <- Some tracer
let has_burn_rules t = List.exists (fun st -> st.r.burn_rate <> None) t.states

let push t q x =
  Queue.add x q;
  if Queue.length q > t.capacity then ignore (Queue.take q)

let record t ~at st transition severity (burn_fast, burn_slow) =
  let value = match st.last_value with Some v -> v | None -> nan in
  push t t.incidents
    {
      seq = t.incidents_total;
      at;
      alert = st.r.alert_name;
      transition;
      severity;
      value;
      burn_fast;
      burn_slow;
    };
  t.incidents_total <- t.incidents_total + 1;
  match t.tracer with
  | None -> ()
  | Some tracer ->
    Tracer.instant tracer
      ("alert_" ^ transition_to_string transition)
      ~args:
        [
          ("alert", st.r.alert_name);
          ("severity", severity_to_string severity);
          ("value", Registry.fmt_value value);
          ("burn_fast", Registry.fmt_value burn_fast);
          ("burn_slow", Registry.fmt_value burn_slow);
        ]

let incidents t = List.of_seq (Queue.to_seq t.incidents)
let breaches t = List.of_seq (Queue.to_seq t.breaches)

(* -- threshold rules ---------------------------------------------------- *)

(* The value a threshold rule judges: the signal's latest sample, or
   the mean of the trailing window ending at it. [None] while the
   signal has no samples (the rule is pending). *)
let judged t (r : rule) =
  match Tsdb.latest t.tsdb r.signal with
  | None -> None
  | Some (last_at, last) ->
    if t.window = 0.0 then Some last
    else Some (Tsdb.window_mean t.tsdb r.signal ~at:last_at ~window:t.window)

(* A breach is [Firing] until the judged value holds again; only the
   ok->breach edge enters the breach history. *)
let eval_threshold t ~at st =
  match judged t st.r with
  | None -> ()
  | Some value -> (
    st.last_value <- Some value;
    match (st.phase, holds st.r.cmp value st.r.objective) with
    | _, true -> st.phase <- Inactive
    | Firing f, false -> st.phase <- Firing { f with last_bad = at }
    | (Inactive | Pending _), false -> (
      st.phase <- Firing { since = at; last_bad = at; severity = Page };
      push t t.breaches { breach_rule = st.r; value; at };
      t.breaches_total <- t.breaches_total + 1;
      match t.tracer with
      | None -> ()
      | Some tracer ->
        Tracer.instant tracer "slo_breach"
          ~args:
            [
              ("rule", rule_to_string st.r);
              ("value", Registry.fmt_value value);
            ]))

(* -- burn-rate rules ---------------------------------------------------- *)

let bad_fraction t (r : rule) ~at ~window =
  let bad, n =
    Tsdb.window_fold t.tsdb r.signal ~at ~window ~init:(0, 0)
      ~f:(fun (bad, n) _ v ->
        ((if holds r.cmp v r.objective then bad else bad + 1), n + 1))
  in
  if n = 0 then 0.0 else float_of_int bad /. float_of_int n

let pair_burn t r b pair ~at =
  ( bad_fraction t r ~at ~window:pair.fast /. b.budget,
    bad_fraction t r ~at ~window:pair.slow /. b.budget )

(* The pair whose burns the incident reports: the worst active pair,
   or the first configured pair while nothing is active. *)
let judge t st b ~at =
  let burns =
    List.map (fun p -> (p, pair_burn t st.r b p ~at)) b.windows
  in
  let active =
    List.filter (fun (p, (bf, bs)) -> bf >= p.burn && bs >= p.burn) burns
  in
  let severity =
    List.fold_left
      (fun acc (p, _) ->
        match acc with
        | None -> Some p.pair_severity
        | Some s -> Some (worse s p.pair_severity))
      None active
  in
  let representative =
    match
      List.find_opt
        (fun (p, _) -> Some p.pair_severity = severity)
        (match active with [] -> burns | _ -> active)
    with
    | Some (_, b) -> b
    | None -> (match burns with (_, b) :: _ -> b | [] -> (0.0, 0.0))
  in
  (severity, representative)

let eval_burn t ~at st b =
  let severity, burn = judge t st b ~at in
  st.last_value <- Option.map snd (Tsdb.latest t.tsdb st.r.signal);
  st.last_burn <- burn;
  let fire sev =
    st.phase <- Firing { since = at; last_bad = at; severity = sev };
    st.fired_total <- st.fired_total + 1;
    record t ~at st To_firing sev burn
  in
  match (st.phase, severity) with
  | Inactive, None -> ()
  | Inactive, Some sev ->
    st.phase <- Pending { since = at; severity = sev };
    record t ~at st To_pending sev burn;
    (* a zero [for_] fires on the same evaluation that went pending *)
    if b.for_ <= 0.0 then fire sev
  | Pending p, Some sev ->
    let sev = worse p.severity sev in
    if at -. p.since >= b.for_ then fire sev
    else st.phase <- Pending { p with severity = sev }
  | Pending p, None ->
    st.phase <- Inactive;
    record t ~at st To_cancelled p.severity burn
  | Firing f, Some sev ->
    st.phase <- Firing { f with last_bad = at; severity = worse f.severity sev }
  | Firing f, None ->
    (* [keep_firing] holds the alert through flaps: only a quiet spell
       of at least that long resolves it *)
    if at -. f.last_bad >= b.keep_firing then begin
      st.phase <- Inactive;
      record t ~at st To_resolved f.severity burn
    end

let eval t ~at =
  t.evals <- t.evals + 1;
  List.iter
    (fun st ->
      match st.r.burn_rate with
      | None -> eval_threshold t ~at st
      | Some b -> eval_burn t ~at st b)
    t.states

let observe t ~at signals =
  Tsdb.observe t.tsdb ~at signals;
  eval t ~at

(* -- verdicts ----------------------------------------------------------- *)

let firing t =
  List.filter_map
    (fun st ->
      match (st.r.burn_rate, st.phase) with
      | Some _, Firing f -> Some (st.r, f.severity)
      | None, _ | Some _, (Inactive | Pending _) -> None)
    t.states

let breaching t =
  List.filter_map
    (fun st ->
      match (st.r.burn_rate, st.phase, st.last_value) with
      | None, Firing _, Some v -> Some (st.r, v)
      | _ -> None)
    t.states

let any_firing t = firing t <> []
let rules_ok t = breaching t = []
let healthy t = rules_ok t && not (any_firing t)

let worst_severity t =
  List.fold_left
    (fun acc (_, sev) ->
      match acc with None -> Some sev | Some s -> Some (worse s sev))
    None (firing t)

let severity_code t =
  match worst_severity t with
  | None -> 0
  | Some Ticket -> 1
  | Some Page -> 2

let render_firing t =
  String.concat ""
    (List.map
       (fun (r, sev) ->
         Printf.sprintf "firing: %s severity=%s\n" r.alert_name
           (severity_to_string sev))
       (firing t))

(* -- /healthz ----------------------------------------------------------- *)

let status_line ok = if ok then "status: ok\n" else "status: breach\n"

(* The "breaching: NAME" lines right after the verdict: a watch
   failure is attributable from the probe body alone, without parsing
   the per-rule detail below. *)
let breaching_lines t =
  String.concat ""
    (List.map
       (fun (r, _) -> Printf.sprintf "breaching: %s\n" r.alert_name)
       (breaching t))

let thresholds t = List.filter (fun st -> st.r.burn_rate = None) t.states

let render_detail t =
  let buf = Buffer.create 256 in
  List.iter
    (fun st ->
      Buffer.add_string buf
        (match st.last_value with
        | None ->
          Printf.sprintf "rule %s  pending (no samples)\n"
            (rule_to_string st.r)
        | Some v ->
          Printf.sprintf "rule %s  value %s  %s\n" (rule_to_string st.r)
            (Registry.fmt_value v)
            (match st.phase with Firing _ -> "BREACH" | _ -> "ok")))
    (thresholds t);
  Buffer.add_string buf
    (Printf.sprintf "observations: %d\nbreaches_total: %d\n" t.evals
       t.breaches_total);
  List.iter
    (fun b ->
      Buffer.add_string buf
        (Printf.sprintf "breach at %s: %s (value %s)\n"
           (Registry.fmt_value b.at)
           (rule_to_string b.breach_rule)
           (Registry.fmt_value b.value)))
    (breaches t);
  Buffer.contents buf

let render_rules t = status_line (rules_ok t) ^ breaching_lines t ^ render_detail t

(* The firing lines sit right after the breaching lines, above the
   detail, so a probe that reads only the head of the body (watch,
   Fleet.parse_firing) attributes either kind of failure. *)
let healthz t =
  let ok = healthy t in
  ( ok,
    status_line ok ^ breaching_lines t ^ render_firing t ^ render_detail t )

(* -- JSON --------------------------------------------------------------- *)

(* Non-finite floats keep their Prometheus spelling but as JSON
   strings (the audit ring's convention). *)
let json_num v =
  if Float.is_nan v || v = infinity || v = neg_infinity then
    Registry.json_string (Registry.fmt_value v)
  else Registry.fmt_value v

let json_str = Registry.json_string

let healthz_json t =
  let rule_json st =
    Printf.sprintf "{\"rule\":%s,\"value\":%s,\"ok\":%b}"
      (json_str (rule_to_string st.r))
      (match st.last_value with None -> "null" | Some v -> json_num v)
      (match st.phase with Firing _ -> false | _ -> true)
  in
  let breach_json b =
    Printf.sprintf "{\"at\":%s,\"rule\":%s,\"value\":%s}" (json_num b.at)
      (json_str (rule_to_string b.breach_rule))
      (json_num b.value)
  in
  Printf.sprintf
    "{\"healthy\":%b,\"observations\":%d,\"rules\":[%s],\"breaches\":[%s]}"
    (rules_ok t) t.evals
    (String.concat "," (List.map rule_json (thresholds t)))
    (String.concat "," (List.map breach_json (breaches t)))

let phase_to_string = function
  | Inactive -> "ok"
  | Pending _ -> "pending"
  | Firing _ -> "firing"

let incident_json inc =
  Printf.sprintf
    "{\"alert\":%s,\"at\":%s,\"burn_fast\":%s,\"burn_slow\":%s,\"seq\":%d,\
     \"severity\":%s,\"transition\":%s,\"value\":%s}"
    (json_str inc.alert) (json_num inc.at) (json_num inc.burn_fast)
    (json_num inc.burn_slow) inc.seq
    (json_str (severity_to_string inc.severity))
    (json_str (transition_to_string inc.transition))
    (json_num inc.value)

let incidents_to_jsonl t =
  match incidents t with
  | [] -> ""
  | incs -> String.concat "\n" (List.map incident_json incs) ^ "\n"

let window_json w =
  Printf.sprintf "{\"burn\":%s,\"fast\":%s,\"severity\":%s,\"slow\":%s}"
    (json_num w.burn) (json_num w.fast)
    (json_str (severity_to_string w.pair_severity))
    (json_num w.slow)

let alert_json st b =
  let burn_fast, burn_slow = st.last_burn in
  let severity, since =
    match st.phase with
    | Inactive -> ("null", "null")
    | Pending p ->
      (json_str (severity_to_string p.severity), json_num p.since)
    | Firing f ->
      (json_str (severity_to_string f.severity), json_num f.since)
  in
  Printf.sprintf
    "{\"budget\":%s,\"burn_fast\":%s,\"burn_slow\":%s,\"fired_total\":%d,\
     \"for\":%s,\"keep_firing\":%s,\"name\":%s,\"objective\":%s,\
     \"severity\":%s,\"signal\":%s,\"since\":%s,\"state\":%s,\"value\":%s,\
     \"windows\":[%s]}"
    (json_num b.budget) (json_num burn_fast) (json_num burn_slow)
    st.fired_total (json_num b.for_) (json_num b.keep_firing)
    (json_str st.r.alert_name)
    (json_str (objective_to_string st.r))
    severity (json_str st.r.signal) since
    (json_str (phase_to_string st.phase))
    (match st.last_value with None -> "null" | Some v -> json_num v)
    (String.concat "," (List.map window_json b.windows))

let worst_to_string t =
  match worst_severity t with
  | None -> "ok"
  | Some sev -> severity_to_string sev

(* Keys sorted at every level, numbers canonical: under a
   deterministic (at, value) stream this body is byte-stable. *)
let to_json t =
  Printf.sprintf
    "{\"alerts\":[%s],\"dropped\":%d,\"evals\":%d,\"firing\":[%s],\
     \"incidents\":[%s],\"incidents_total\":%d,\"worst\":%s}"
    (String.concat ","
       (List.filter_map
          (fun st -> Option.map (alert_json st) st.r.burn_rate)
          t.states))
    (t.incidents_total - Queue.length t.incidents)
    t.evals
    (String.concat ","
       (List.map (fun (r, _) -> json_str r.alert_name) (firing t)))
    (String.concat "," (List.map incident_json (incidents t)))
    t.incidents_total
    (json_str (worst_to_string t))

(* -- exposition --------------------------------------------------------- *)

let query_payload t query =
  match List.assoc_opt "signal" query with
  | None | Some "" ->
    Server.json ~status:400
      (Printf.sprintf "{\"error\":\"missing ?signal=\",\"signals\":[%s]}"
         (String.concat "," (List.map json_str (Tsdb.names t.tsdb))))
  | Some signal -> (
    match Tsdb.series t.tsdb signal with
    | None ->
      Server.json ~status:404
        (Printf.sprintf "{\"error\":\"unknown signal\",\"signals\":[%s]}"
           (String.concat "," (List.map json_str (Tsdb.names t.tsdb))))
    | Some _ ->
      let num key default =
        match List.assoc_opt key query with
        | Some s -> (
          match float_of_string_opt s with Some v -> v | None -> default)
        | None -> default
      in
      let from = num "from" 0.0 and step = num "step" 0.0 in
      Server.json (Tsdb.query_json t.tsdb signal ~from ~step))

let routes t =
  if not (has_burn_rules t) then []
  else
    [
      Server.route ~file:"alerts.json"
        ~describe:"burn-rate alert states + incident history" "/alerts"
        (fun () -> Server.json (to_json t));
      Server.route_q ~file:"query.json"
        ~describe:"tsdb range query: ?signal=&from=&step=" "/query"
        (query_payload t);
      Server.route ~file:"alertz.jsonl"
        ~describe:"incident timeline ring (JSONL)" "/alertz" (fun () ->
          Server.text (incidents_to_jsonl t));
    ]
