open Mitos_tag

let phi ~alpha n =
  if alpha = 1.0 then (if n <= 0.0 then infinity else -.log n)
  else if n <= 0.0 then
    (* n^(1-alpha)/(alpha-1): for alpha > 1 the kernel diverges to
       +infinity as n -> 0+ (huge undertainting cost => propagate);
       for alpha < 1 it is 0 at n = 0. *)
    if alpha > 1.0 then infinity else 0.0
  else (n ** (1.0 -. alpha)) /. (alpha -. 1.0)

let under_tag p ty n = Params.u p ty *. phi ~alpha:p.Params.alpha n

let under_total p stats =
  Tag_stats.fold stats ~init:0.0 ~f:(fun acc tag n ->
      acc +. under_tag p (Tag.ty tag) (float_of_int n))

let weighted_pollution p stats = Tag_stats.weighted_total stats p.Params.o

let over_of_pollution p pollution =
  let n_r = float_of_int p.Params.total_tag_space in
  Params.tau_effective p *. n_r *. ((pollution /. n_r) ** p.Params.beta)

let over_total p stats = over_of_pollution p (weighted_pollution p stats)

let total p stats = under_total p stats +. over_total p stats

let under_submarginal p ty ~n =
  if n <= 0.0 then neg_infinity
  else -.(p.Params.u.(Tag_type.to_int ty) *. (n ** -.p.Params.alpha))

(* [Params.tau_effective] written out: the same product, not boxed on
   its way back from a call *)
let over_factor p pollution =
  let n_r = float_of_int p.Params.total_tag_space in
  p.Params.tau *. p.Params.tau_scale *. p.Params.beta
  *. ((Float.max 0.0 pollution /. n_r) ** (p.Params.beta -. 1.0))

(* [*.] associates left, so this is g(P)'s product times o_t: the
   same operations in the same order as writing the product out. *)
let over_submarginal p ty ~pollution = over_factor p pollution *. Params.o p ty

let marginal p ty ~n ~pollution =
  under_submarginal p ty ~n +. over_submarginal p ty ~pollution
