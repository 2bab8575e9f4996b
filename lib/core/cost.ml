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

(* [p.over_scale] is [tau *. tau_scale *. beta], the product this
   once wrote out. At the default beta = 2 the exponent is 1.0 and the
   pow is skipped: [pow x 1.0] is [x], since the exact result is
   representable and libm's pow errs by far less than half an ulp
   ([test_core] checks 10^6 doubles, subnormals included). *)
let over_factor p pollution =
  let n_r = float_of_int p.Params.total_tag_space in
  let x = Float.max 0.0 pollution /. n_r in
  let e = p.Params.beta -. 1.0 in
  p.Params.over_scale *. if e = 1.0 then x else x ** e

(* [*.] associates left, so this is g(P)'s product times o_t: the
   same operations in the same order as writing the product out. *)
let over_submarginal p ty ~pollution = over_factor p pollution *. Params.o p ty

let marginal p ty ~n ~pollution =
  under_submarginal p ty ~n +. over_submarginal p ty ~pollution
