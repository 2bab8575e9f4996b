open Mitos_tag

type verdict = Propagate | Block

let verdict_to_string = function Propagate -> "propagate" | Block -> "block"

type env = { count : Tag.t -> int; pollution : float }

(* -- decision context ------------------------------------------------ *)

(* Histogram handles, resolved once when the context is built. *)
type probe = {
  obs : Mitos_obs.Obs.t;
  alg1_latency : Mitos_obs.Histogram.t;
  alg2_latency : Mitos_obs.Histogram.t;
  alg2_candidates : Mitos_obs.Histogram.t;
}

type ctx = { probe : probe option; audit : Mitos_obs.Audit.t option }

let no_ctx = { probe = None; audit = None }

let make_ctx ?obs ?audit () =
  let probe =
    match obs with
    | Some obs when Mitos_obs.Obs.enabled obs ->
      let module R = Mitos_obs.Registry in
      let registry = Mitos_obs.Obs.registry obs in
      Some
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
        }
    | Some _ | None -> None
  in
  let audit =
    match audit with
    | Some recorder when Mitos_obs.Audit.enabled recorder -> audit
    | Some _ | None -> None
  in
  { probe; audit }

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

let decide1 ctx p env tag =
  let m = marginal p env tag in
  let v = if m <= 0.0 then Propagate else Block in
  (match ctx.audit with
  | None -> ()
  | Some recorder ->
    Mitos_obs.Audit.record_decision recorder ~algorithm:"alg1" ~space:1
      ~pollution:env.pollution
      [ audit_tag p env tag m v ]);
  v

let alg1 ?(ctx = no_ctx) p env tag =
  match ctx.probe with
  | None -> decide1 ctx p env tag
  | Some pr ->
    Mitos_obs.Obs.time pr.obs pr.alg1_latency (fun () -> decide1 ctx p env tag)

type ranked = { tag : Tag.t; marginal : float; verdict : verdict }

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

let decide2 pass ~algorithm ctx p env ~space candidates =
  let ranked = greedy pass p env ~space candidates in
  (match ctx.audit with
  | None -> ()
  | Some recorder ->
    Mitos_obs.Audit.record_decision recorder ~algorithm ~space
      ~pollution:env.pollution
      (List.map (fun r -> audit_tag p env r.tag r.marginal r.verdict) ranked));
  ranked

let run_alg2 pass ~algorithm ctx p env ~space candidates =
  if space < 0 then invalid_arg "Decision.alg2: negative space";
  match ctx.probe with
  | None -> decide2 pass ~algorithm ctx p env ~space candidates
  | Some pr ->
    Mitos_obs.Obs.time pr.obs pr.alg2_latency (fun () ->
        Mitos_obs.Histogram.observe pr.alg2_candidates
          (float_of_int (List.length candidates));
        decide2 pass ~algorithm ctx p env ~space candidates)

let alg2 ?(ctx = no_ctx) p env ~space candidates =
  run_alg2 Recompute ~algorithm:"alg2" ctx p env ~space candidates

let alg2_accepted p env ~space candidates =
  alg2 p env ~space candidates
  |> List.filter_map (fun r ->
         match r.verdict with Propagate -> Some r.tag | Block -> None)

let alg2_no_recompute ?(ctx = no_ctx) p env ~space candidates =
  run_alg2 Initial ~algorithm:"alg2-no-recompute" ctx p env ~space candidates

(* the paper's while loop exits on the first positive marginal (or when
   space runs out) and never reconsiders *)
let alg2_paper p env ~space candidates =
  if space < 0 then invalid_arg "Decision.alg2_paper: negative space";
  greedy Stop_at_refusal p env ~space candidates
