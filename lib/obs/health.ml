module Timeseries = Mitos_util.Timeseries

type cmp = Le | Lt | Ge | Gt

type rule = {
  rule_name : string;
  signal : string;
  cmp : cmp;
  bound : float;
}

let rule ?name ~signal ~cmp ~bound () =
  let rule_name = match name with Some n -> n | None -> signal in
  { rule_name; signal; cmp; bound }

let cmp_to_string = function
  | Le -> "<="
  | Lt -> "<"
  | Ge -> ">="
  | Gt -> ">"

let rule_to_string r =
  let prefix = if r.rule_name = r.signal then "" else r.rule_name ^ ":" in
  Printf.sprintf "%s%s%s%s" prefix r.signal (cmp_to_string r.cmp)
    (Registry.fmt_value r.bound)

let parse_rule s =
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
      | None -> Error (Printf.sprintf "bad bound in SLO rule %S" s)
      | Some bound -> Ok (rule ?name ~signal ~cmp ~bound ()))

type breach = { breach_rule : rule; value : float; at : float }

(* Per-rule evaluation state: [violated] tracks the transition edge so
   a sustained breach is recorded once, not once per sample. *)
type rule_state = { r : rule; mutable violated : bool }

(* Breach history kept for rendering — the newest ones, the same
   size as the alert engine's incident ring — so a flapping rule on a
   long-lived server cannot grow /healthz without bound. *)
let breach_history = 1024

type t = {
  window : float;
  states : rule_state list;
  series : (string, Timeseries.t) Hashtbl.t;
  mutable order : string list;  (* first-observation order, reversed *)
  recent_breaches : breach Queue.t;  (* oldest first, <= breach_history *)
  mutable breaches_total : int;
  mutable observations : int;
  mutable tracer : Tracer.t option;
}

let create ?(window = 0.0) ~rules () =
  if window < 0.0 then invalid_arg "Health.create: negative window";
  {
    window;
    states = List.map (fun r -> { r; violated = false }) rules;
    series = Hashtbl.create 8;
    order = [];
    recent_breaches = Queue.create ();
    breaches_total = 0;
    observations = 0;
    tracer = None;
  }

let rules t = List.map (fun s -> s.r) t.states
let link_tracer t tracer = t.tracer <- Some tracer

let series_of t name =
  match Hashtbl.find_opt t.series name with
  | Some ts -> ts
  | None ->
    let ts = Timeseries.create ~name () in
    Hashtbl.add t.series name ts;
    t.order <- name :: t.order;
    ts

let holds cmp value bound =
  match cmp with
  | Le -> value <= bound
  | Lt -> value < bound
  | Ge -> value >= bound
  | Gt -> value > bound

(* The value a rule judges right now: latest sample, or the trailing
   window mean. [None] while the signal has no samples. *)
let judged_value t (r : rule) =
  match Hashtbl.find_opt t.series r.signal with
  | None -> None
  | Some ts -> (
    match Timeseries.last ts with
    | None -> None
    | Some (last_time, last_value) ->
      if t.window = 0.0 then Some last_value
      else Some (Timeseries.window_mean ts ~from_time:(last_time -. t.window)))

let observe t ~at signals =
  List.iter (fun (name, value) -> Timeseries.add (series_of t name) at value) signals;
  t.observations <- t.observations + 1;
  List.iter
    (fun st ->
      match judged_value t st.r with
      | None -> ()
      | Some value ->
        let ok = holds st.r.cmp value st.r.bound in
        if (not ok) && not st.violated then begin
          Queue.add { breach_rule = st.r; value; at } t.recent_breaches;
          if Queue.length t.recent_breaches > breach_history then
            ignore (Queue.take t.recent_breaches);
          t.breaches_total <- t.breaches_total + 1;
          match t.tracer with
          | None -> ()
          | Some tracer ->
            Tracer.instant tracer "slo_breach"
              ~args:
                [
                  ("rule", rule_to_string st.r);
                  ("value", Registry.fmt_value value);
                ]
        end;
        st.violated <- not ok)
    t.states

let signals t =
  List.rev_map (fun name -> (name, Hashtbl.find t.series name)) t.order

let current_breaches t =
  List.filter_map
    (fun st ->
      if st.violated then
        match judged_value t st.r with
        | Some v -> Some (st.r, v)
        | None -> None
      else None)
    t.states

let breaches t = List.of_seq (Queue.to_seq t.recent_breaches)
let healthy t = List.for_all (fun st -> not st.violated) t.states
let status_code t = if healthy t then 200 else 503

(* The "breaching: NAME" lines right after the verdict: a watch
   failure is attributable from the probe body alone, without parsing
   the per-rule detail below. *)
let breaching_lines t =
  String.concat ""
    (List.map
       (fun (r, _) -> Printf.sprintf "breaching: %s\n" r.rule_name)
       (current_breaches t))

let render_detail t =
  let buf = Buffer.create 256 in
  List.iter
    (fun st ->
      let line =
        match judged_value t st.r with
        | None ->
          Printf.sprintf "rule %s  pending (no samples)\n"
            (rule_to_string st.r)
        | Some v ->
          Printf.sprintf "rule %s  value %s  %s\n" (rule_to_string st.r)
            (Registry.fmt_value v)
            (if st.violated then "BREACH" else "ok")
      in
      Buffer.add_string buf line)
    t.states;
  Buffer.add_string buf
    (Printf.sprintf "observations: %d\nbreaches_total: %d\n" t.observations
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

let render t =
  (if healthy t then "status: ok\n" else "status: breach\n")
  ^ breaching_lines t ^ render_detail t

let to_json t =
  let str = Registry.json_string in
  let num v =
    if Float.is_nan v || v = infinity || v = neg_infinity then
      str (Registry.fmt_value v)
    else Registry.fmt_value v
  in
  let rule_json st =
    let value_field =
      match judged_value t st.r with
      | None -> "\"value\":null"
      | Some v -> Printf.sprintf "\"value\":%s" (num v)
    in
    Printf.sprintf "{\"rule\":%s,%s,\"ok\":%b}"
      (str (rule_to_string st.r))
      value_field (not st.violated)
  in
  let breach_json b =
    Printf.sprintf "{\"at\":%s,\"rule\":%s,\"value\":%s}" (num b.at)
      (str (rule_to_string b.breach_rule))
      (num b.value)
  in
  Printf.sprintf
    "{\"healthy\":%b,\"observations\":%d,\"rules\":[%s],\"breaches\":[%s]}"
    (healthy t) t.observations
    (String.concat "," (List.map rule_json t.states))
    (String.concat "," (List.map breach_json (breaches t)))
