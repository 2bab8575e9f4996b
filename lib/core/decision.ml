open Mitos_tag

type verdict = Propagate | Block

let verdict_to_string = function Propagate -> "propagate" | Block -> "block"

type env = { count : Tag.t -> int; pollution : float }

(* -- observability probe -------------------------------------------- *)

(* Resolved once in [set_obs]; the disabled path is one ref read and a
   pointer compare per decision. *)
type probe = {
  obs : Mitos_obs.Obs.t;
  alg1_latency : Mitos_obs.Histogram.t;
  alg2_latency : Mitos_obs.Histogram.t;
  alg2_candidates : Mitos_obs.Histogram.t;
}

(* An [Atomic] rather than a plain ref: engines running inside a
   domain pool all read this on every decision, and a plain ref has
   no publication guarantee for the probe record installed by
   [set_obs] from another domain. Reads stay one atomic load on the
   disabled path. *)
let probe : probe option Atomic.t = Atomic.make None

let set_obs = function
  | None -> Atomic.set probe None
  | Some obs ->
    if not (Mitos_obs.Obs.enabled obs) then Atomic.set probe None
    else begin
      let module R = Mitos_obs.Registry in
      let registry = Mitos_obs.Obs.registry obs in
      Atomic.set probe
        (Some
          {
            obs;
            alg1_latency =
              R.histogram registry
                ~help:"Alg. 1 single-tag decision latency in clock ticks"
                "mitos_alg1_latency_ticks";
            alg2_latency =
              R.histogram registry
                ~help:"Alg. 2 batch decision latency in clock ticks"
                "mitos_alg2_latency_ticks";
            alg2_candidates =
              R.histogram registry
                ~help:"candidate tags per Alg. 2 invocation"
                "mitos_alg2_candidates";
          })
    end

let timed pick_hist f =
  match Atomic.get probe with
  | None -> f ()
  | Some p -> Mitos_obs.Obs.time p.obs (pick_hist p) f

(* -- audit probe ----------------------------------------------------- *)

(* Same shape as [probe]: a module-global [Atomic] holding the
   installed decision flight recorder. The disabled path is one
   atomic load per decision; record construction (tag rendering,
   submarginal split) happens only when a recorder is installed. *)
let audit_probe : Mitos_obs.Audit.t option Atomic.t = Atomic.make None

let set_audit = function
  | None -> Atomic.set audit_probe None
  | Some recorder ->
    Atomic.set audit_probe
      (if Mitos_obs.Audit.enabled recorder then Some recorder else None)

let audit () = Atomic.get audit_probe

let of_stats p stats =
  { count = Tag_stats.count stats; pollution = Cost.weighted_pollution p stats }

let marginal p env tag =
  Cost.marginal p (Tag.ty tag)
    ~n:(float_of_int (env.count tag))
    ~pollution:env.pollution

let submarginals p env tag =
  let ty = Tag.ty tag in
  ( Cost.under_submarginal p ty ~n:(float_of_int (env.count tag)),
    Cost.over_submarginal p ty ~pollution:env.pollution )

(* The recorded overtainting part is [m - under], not a fresh
   [over_submarginal] read: within Alg. 2's greedy pass the pollution
   (and with it the overtainting term) moves after each acceptance,
   and the audit log must show the split the verdict actually used. *)
let audit_tag p env tag m v =
  let under =
    Cost.under_submarginal p (Tag.ty tag)
      ~n:(float_of_int (env.count tag))
  in
  {
    Mitos_obs.Audit.tag = Tag.to_string tag;
    under;
    over = m -. under;
    marginal = m;
    verdict =
      (match v with
      | Propagate -> Mitos_obs.Audit.Propagate
      | Block -> Mitos_obs.Audit.Block);
  }

let alg1 p env tag =
  timed
    (fun pr -> pr.alg1_latency)
    (fun () ->
      let m = marginal p env tag in
      let v = if m <= 0.0 then Propagate else Block in
      (match Atomic.get audit_probe with
      | None -> ()
      | Some recorder ->
        Mitos_obs.Audit.record_decision recorder ~algorithm:"alg1" ~space:1
          ~pollution:env.pollution
          [ audit_tag p env tag m v ]);
      v)

type ranked = { tag : Tag.t; marginal : float; verdict : verdict }

let audit_ranked p env ~algorithm ~space ranked =
  match Atomic.get audit_probe with
  | None -> ()
  | Some recorder ->
    Mitos_obs.Audit.record_decision recorder ~algorithm ~space
      ~pollution:env.pollution
      (List.map (fun r -> audit_tag p env r.tag r.marginal r.verdict) ranked)

(* How the greedy pass (lines 3-10) takes a candidate's marginal:
   recomputed at the current pollution (the paper's line 9), kept from
   the sort (the ablation), or recomputed with the paper's while loop,
   which stops at the first refusal. *)
type pass = Recompute | Initial | Stop_at_refusal

(* Lines 1-2: candidate indices by increasing initial marginal, ties
   in candidate order, as a stable sort gives them. *)
let sorted_by initial =
  let order = Array.init (Array.length initial) Fun.id in
  Array.stable_sort (fun i j -> Float.compare initial.(i) initial.(j)) order;
  order

(* o_t, the pollution weight of the tag's type *)
let weight p (tag : Tag.t) = p.Params.o.(Tag_type.to_int tag.ty)

(* One Alg. 2 pass. Eq. (8) is [u +. g(P) *. o_t], and only g depends
   on the pollution: each candidate's undertainting submarginal [u] is
   computed once, and g once at the start and again only when a
   candidate is evaluated after an acceptance moved P. These are the
   float operations of [Cost.marginal] in the same order, so every
   marginal is bit-identical to it. *)
let greedy pass p env ~space candidates =
  match candidates with
  | [] -> []
  | first :: _ ->
    let n = List.length candidates in
    let tags = Array.make n first in
    let under = Array.create_float n and initial = Array.create_float n in
    let g0 = Cost.over_factor p env.pollution in
    let rest = ref candidates in
    for i = 0 to n - 1 do
      let tag = List.hd !rest in
      rest := List.tl !rest;
      tags.(i) <- tag;
      let u =
        Cost.under_submarginal p tag.Tag.ty ~n:(float_of_int (env.count tag))
      in
      under.(i) <- u;
      initial.(i) <- u +. (g0 *. weight p tag)
    done;
    let order = sorted_by initial in
    (* Lines 3-10: each acceptance adds o_t to the pollution. Once
       candidate i is decided, [under.(i)] holds its decision-time
       marginal, and [order] holds its index complemented if it was
       accepted. *)
    let pollution = ref env.pollution and g = ref g0 and moved = ref false in
    let props = ref 0 and stopped = ref false in
    for k = 0 to n - 1 do
      let i = order.(k) in
      let o = weight p tags.(i) in
      let m =
        match pass with
        | Initial -> initial.(i)
        | Recompute | Stop_at_refusal ->
          if !moved then begin
            g := Cost.over_factor p !pollution;
            moved := false
          end;
          under.(i) +. (!g *. o)
      in
      under.(i) <- m;
      if (not !stopped) && !props < space && m <= 0.0 then begin
        incr props;
        pollution := !pollution +. o;
        moved := true;
        order.(k) <- lnot i
      end
      else
        match pass with
        | Stop_at_refusal -> stopped := true
        | Recompute | Initial -> ()
    done;
    let ranked = ref [] in
    for k = n - 1 downto 0 do
      let c = order.(k) in
      let i = if c < 0 then lnot c else c in
      let verdict = if c < 0 then Propagate else Block in
      ranked := { tag = tags.(i); marginal = under.(i); verdict } :: !ranked
    done;
    !ranked

let run_alg2 pass ~algorithm p env ~space candidates =
  if space < 0 then invalid_arg "Decision.alg2: negative space";
  timed
    (fun pr -> pr.alg2_latency)
    (fun () ->
      (match Atomic.get probe with
      | None -> ()
      | Some pr ->
        Mitos_obs.Histogram.observe pr.alg2_candidates
          (float_of_int (List.length candidates)));
      let ranked = greedy pass p env ~space candidates in
      audit_ranked p env ~algorithm ~space ranked;
      ranked)

let alg2 p env ~space candidates =
  run_alg2 Recompute ~algorithm:"alg2" p env ~space candidates

let alg2_accepted p env ~space candidates =
  alg2 p env ~space candidates
  |> List.filter_map (fun r ->
         match r.verdict with Propagate -> Some r.tag | Block -> None)

let alg2_no_recompute p env ~space candidates =
  run_alg2 Initial ~algorithm:"alg2-no-recompute" p env ~space candidates

(* the paper's while loop exits on the first positive marginal (or when
   space runs out) and never reconsiders *)
let alg2_paper p env ~space candidates =
  if space < 0 then invalid_arg "Decision.alg2_paper: negative space";
  greedy Stop_at_refusal p env ~space candidates
