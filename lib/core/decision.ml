open Mitos_tag

type verdict = Propagate | Block

let verdict_to_string = function Propagate -> "propagate" | Block -> "block"

type env = { count : Tag.t -> int; pollution : float }

(* -- decision context ------------------------------------------------ *)

(* Histogram handles, resolved once when the context is built. *)
type probe = {
  obs : Mitos_obs.Obs.t;
  alg2_latency : Mitos_obs.Histogram.t;
  alg2_candidates : Mitos_obs.Histogram.t;
}

type ctx = { probe : probe option; audit : Mitos_obs.Audit.t option }

let no_ctx = { probe = None; audit = None }

let observed ctx =
  match ctx with { probe = None; audit = None } -> false | _ -> true

let make_ctx ?obs ?audit () =
  let probe =
    match obs with
    | Some obs when Mitos_obs.Obs.enabled obs ->
      let module R = Mitos_obs.Registry in
      let registry = Mitos_obs.Obs.registry obs in
      Some
        {
          obs;
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
let audit_tag tag ~under m v =
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

let alg1 ?(ctx = no_ctx) p env tag =
  let m = marginal p env tag in
  let v = if m <= 0.0 then Propagate else Block in
  (match ctx.audit with
  | None -> ()
  | Some recorder ->
    let under =
      Cost.under_submarginal p (Tag.ty tag) ~n:(float_of_int (env.count tag))
    in
    Mitos_obs.Audit.record_decision recorder ~algorithm:"alg1" ~space:1
      ~pollution:env.pollution
      [ audit_tag tag ~under m v ]);
  v

(* -- the Alg. 2 core -------------------------------------------------- *)

(* The first [n] slots are the batch; slots past it hold stale entries
   that no read reaches. [order.(k)] is the index of the k-th candidate
   considered, complemented once that candidate is accepted. [marginal]
   holds the initial marginals until the sort, then each candidate's
   decision-time marginal. *)
type scratch = {
  mutable tags : Tag.t array;
  mutable under : float array;
  mutable marginal : float array;
  mutable order : int array;
  mutable n : int;
}

let scratch_of_capacity cap tag =
  {
    tags = Array.make cap tag;
    under = Array.create_float cap;
    marginal = Array.create_float cap;
    order = Array.make cap 0;
    n = 0;
  }

let scratch () =
  { tags = [||]; under = [||]; marginal = [||]; order = [||]; n = 0 }

let reset s = s.n <- 0

let grow s tag =
  let n = s.n in
  let bigger = scratch_of_capacity (max 8 (2 * n)) tag in
  Array.blit s.tags 0 bigger.tags 0 n;
  Array.blit s.under 0 bigger.under 0 n;
  s.tags <- bigger.tags;
  s.under <- bigger.under;
  s.marginal <- bigger.marginal;
  s.order <- bigger.order

(* [Cost.under_submarginal] written out: the same float operations,
   stored unboxed instead of boxed on their way into and out of a call *)
let add s p tag ~count =
  if s.n = Array.length s.tags then grow s tag;
  let i = s.n in
  s.tags.(i) <- tag;
  let n = float_of_int count in
  s.under.(i) <-
    (if n <= 0.0 then neg_infinity
     else
       -.(p.Params.u.(Tag_type.to_int tag.Tag.ty) *. (n ** -.p.Params.alpha)));
  s.n <- i + 1

let length s = s.n

let index s k =
  let c = s.order.(k) in
  if c < 0 then lnot c else c

let nth_tag s k = s.tags.(index s k)
let nth_under s k = s.under.(index s k)
let nth_marginal s k = s.marginal.(index s k)
let nth_propagated s k = s.order.(k) < 0

(* o_t, the pollution weight of the tag's type; inlined, so the float
   is not boxed *)
let[@inline] weight p (tag : Tag.t) = p.Params.o.(Tag_type.to_int tag.ty)

(* Lines 1-2 order candidates by increasing initial marginal, ties in
   candidate order, as [Array.stable_sort] with [Float.compare] does.
   Breaking ties by index makes the order strict and total, so any
   correct sort gives that same permutation; heapsort gives it in
   place, in O(n log n) for any batch. *)
let before m i j =
  let c = Float.compare (Array.unsafe_get m i) (Array.unsafe_get m j) in
  c < 0 || (c = 0 && i < j)

let rec sift_down m order root n =
  let child = (2 * root) + 1 in
  if child < n then begin
    let child =
      if child + 1 < n && before m order.(child) order.(child + 1) then
        child + 1
      else child
    in
    let r = order.(root) in
    if before m r order.(child) then begin
      order.(root) <- order.(child);
      order.(child) <- r;
      sift_down m order child n
    end
  end

let heapsort m order n =
  for root = (n / 2) - 1 downto 0 do
    sift_down m order root n
  done;
  for last = n - 1 downto 1 do
    let top = order.(0) in
    order.(0) <- order.(last);
    order.(last) <- top;
    sift_down m order 0 last
  done

(* How the greedy pass (lines 3-10) takes a candidate's marginal:
   recomputed at the current pollution (the paper's line 9), kept from
   the sort (the ablation), or recomputed with the paper's while loop,
   which stops at the first refusal. *)
type pass = Recompute | Initial | Stop_at_refusal

(* One Alg. 2 pass over the batch in [s]. Eq. (8) is [u +. g(P) *. o_t],
   and only g depends on the pollution: each candidate's undertainting
   submarginal [u] is computed once (by [add]), and g once at the start
   and again only when a candidate is evaluated after an acceptance
   moved P. These are the float operations of [Cost.marginal] in the
   same order, so every marginal is bit-identical to it. *)
let run pass p ~pollution ~space s =
  let n = s.n in
  let tags = s.tags and under = s.under and m = s.marginal in
  let order = s.order in
  if n > 0 then begin
    let g0 = Cost.over_factor p pollution in
    for i = 0 to n - 1 do
      m.(i) <- under.(i) +. (g0 *. weight p tags.(i));
      order.(i) <- i
    done;
    heapsort m order n;
    (* Lines 3-10: each acceptance adds o_t to the pollution. *)
    let pollution = ref pollution and g = ref g0 and moved = ref false in
    let props = ref 0 and stopped = ref false in
    for k = 0 to n - 1 do
      let i = order.(k) in
      let o = weight p tags.(i) in
      let v =
        match pass with
        | Initial -> m.(i)
        | Recompute | Stop_at_refusal ->
          if !moved then begin
            g := Cost.over_factor p !pollution;
            moved := false
          end;
          under.(i) +. (!g *. o)
      in
      m.(i) <- v;
      if (not !stopped) && !props < space && v <= 0.0 then begin
        incr props;
        pollution := !pollution +. o;
        moved := true;
        order.(k) <- lnot i
      end
      else
        match pass with
        | Stop_at_refusal -> stopped := true
        | Recompute | Initial -> ()
    done
  end

(* [f k] for every candidate, as a list in the order considered *)
let map_ranked s f =
  let l = ref [] in
  for k = s.n - 1 downto 0 do
    l := f k !l
  done;
  !l

let verdict s k = if nth_propagated s k then Propagate else Block

let audit_tags s =
  map_ranked s (fun k l ->
      audit_tag (nth_tag s k) ~under:(nth_under s k) (nth_marginal s k)
        (verdict s k)
      :: l)

(* Top level, so the hot path allocates no closure for it. *)
let rec accepted_from s k l =
  if k < 0 then l
  else
    accepted_from s (k - 1) (if nth_propagated s k then nth_tag s k :: l else l)

let accepted s = accepted_from s (s.n - 1) []

let decide2 pass ~algorithm ctx p ~pollution ~space s =
  run pass p ~pollution ~space s;
  match ctx.audit with
  | None -> ()
  | Some recorder ->
    Mitos_obs.Audit.record_decision recorder ~algorithm ~space ~pollution
      (audit_tags s)

let run_alg2 pass ~algorithm ctx p ~pollution ~space s =
  if space < 0 then invalid_arg "Decision.alg2: negative space";
  match ctx.probe with
  | None -> decide2 pass ~algorithm ctx p ~pollution ~space s
  | Some pr ->
    Mitos_obs.Obs.time pr.obs pr.alg2_latency (fun () ->
        Mitos_obs.Histogram.observe pr.alg2_candidates (float_of_int s.n);
        decide2 pass ~algorithm ctx p ~pollution ~space s)

let decide ctx p ~recompute ~pollution ~space s =
  if recompute then run_alg2 Recompute ~algorithm:"alg2" ctx p ~pollution ~space s
  else
    run_alg2 Initial ~algorithm:"alg2-no-recompute" ctx p ~pollution ~space s

(* -- list wrappers ----------------------------------------------------- *)

type ranked = { tag : Tag.t; marginal : float; verdict : verdict }

let rec add_all s p env = function
  | [] -> ()
  | tag :: tags ->
    add s p tag ~count:(env.count tag);
    add_all s p env tags

let filled p env candidates =
  match candidates with
  | [] -> scratch ()
  | first :: _ ->
    let s = scratch_of_capacity (List.length candidates) first in
    add_all s p env candidates;
    s

let ranked s =
  map_ranked s (fun k l ->
      { tag = nth_tag s k; marginal = nth_marginal s k; verdict = verdict s k }
      :: l)

let alg2 ?(ctx = no_ctx) p env ~space candidates =
  let s = filled p env candidates in
  run_alg2 Recompute ~algorithm:"alg2" ctx p ~pollution:env.pollution ~space s;
  ranked s

let alg2_accepted p env ~space candidates =
  let s = filled p env candidates in
  run_alg2 Recompute ~algorithm:"alg2" no_ctx p ~pollution:env.pollution
    ~space s;
  accepted s

let alg2_no_recompute ?(ctx = no_ctx) p env ~space candidates =
  let s = filled p env candidates in
  run_alg2 Initial ~algorithm:"alg2-no-recompute" ctx p
    ~pollution:env.pollution ~space s;
  ranked s

(* the paper's while loop exits on the first positive marginal (or when
   space runs out) and never reconsiders *)
let alg2_paper p env ~space candidates =
  if space < 0 then invalid_arg "Decision.alg2_paper: negative space";
  let s = filled p env candidates in
  run Stop_at_refusal p ~pollution:env.pollution ~space s;
  ranked s
