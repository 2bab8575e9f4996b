open Mitos_tag

type t = {
  alpha : float;
  beta : float;
  tau : float;
  tau_scale : float;
  u : float array;
  o : float array;
  total_tag_space : int;
  mem_capacity : int;
  pow_neg_alpha : float array;
  over_scale : float;
}

(* [n ** -.alpha] for every count [n] the table covers, by the
   expression [Cost.under_submarginal] evaluates *)
let pow_table_size = 1024

let pow_table alpha =
  Array.init pow_table_size (fun n -> float_of_int n ** -.alpha)

(* g(P)'s constant factor, multiplied in [Cost.over_factor]'s order *)
let over_scale ~tau ~tau_scale ~beta = tau *. tau_scale *. beta

(* The first weight that is not > 0, named by its tag type. *)
let weight_error name w =
  let rec find i =
    if i >= Array.length w then None
    else if not (w.(i) > 0.0) then
      Some
        (Printf.sprintf "%s weight of %s must be > 0 (got %g)" name
           (Tag_type.to_string (Tag_type.of_int i))
           w.(i))
    else find (i + 1)
  in
  find 0

let validate ~alpha ~beta ~tau ~tau_scale ~u ~o ~total_tag_space ~mem_capacity =
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  if not (alpha > 0.0) then fail "alpha must be > 0 (got %g)" alpha
  else if not (beta >= 1.0) then fail "beta must be >= 1 (got %g)" beta
  else if not (tau >= 0.0) then fail "tau must be >= 0 (got %g)" tau
  else if not (tau_scale > 0.0) then fail "tau_scale must be > 0 (got %g)" tau_scale
  else if Array.length u <> Tag_type.count then fail "u has wrong arity"
  else if Array.length o <> Tag_type.count then fail "o has wrong arity"
  else
    match (weight_error "u" u, weight_error "o" o) with
    | Some msg, _ | None, Some msg -> Error msg
    | None, None ->
      if total_tag_space < 1 then fail "total_tag_space must be >= 1"
      else if mem_capacity < 1 then fail "mem_capacity must be >= 1"
      else Ok ()

let weights_of_list l =
  let a = Array.make Tag_type.count 1.0 in
  List.iter (fun (ty, w) -> a.(Tag_type.to_int ty) <- w) l;
  a

let make ?(alpha = 1.5) ?(beta = 2.0) ?(tau = 1.0) ?(tau_scale = 1e4) ?(u = [])
    ?(o = []) ~total_tag_space ~mem_capacity () =
  let u = weights_of_list u and o = weights_of_list o in
  match
    validate ~alpha ~beta ~tau ~tau_scale ~u ~o ~total_tag_space ~mem_capacity
  with
  | Ok () ->
    { alpha; beta; tau; tau_scale; u; o; total_tag_space; mem_capacity;
      pow_neg_alpha = pow_table alpha;
      over_scale = over_scale ~tau ~tau_scale ~beta }
  | Error msg -> invalid_arg ("Params.make: " ^ msg)

let default ~total_tag_space ~mem_capacity =
  make ~total_tag_space ~mem_capacity ()

let of_shadow_dims ~m_prov ~mem_capacity ~num_regs =
  make
    ~total_tag_space:((mem_capacity + num_regs) * m_prov)
    ~mem_capacity ()

let u t ty = t.u.(Tag_type.to_int ty)
let o t ty = t.o.(Tag_type.to_int ty)

let rebuild t ~alpha ~beta ~tau ~tau_scale ~u ~o =
  match
    validate ~alpha ~beta ~tau ~tau_scale ~u ~o
      ~total_tag_space:t.total_tag_space ~mem_capacity:t.mem_capacity
  with
  | Ok () ->
    let pow_neg_alpha =
      if Float.equal alpha t.alpha then t.pow_neg_alpha else pow_table alpha
    in
    { t with alpha; beta; tau; tau_scale; u; o; pow_neg_alpha;
      over_scale = over_scale ~tau ~tau_scale ~beta }
  | Error msg -> invalid_arg ("Params: " ^ msg)

let with_alpha t alpha =
  rebuild t ~alpha ~beta:t.beta ~tau:t.tau ~tau_scale:t.tau_scale ~u:t.u ~o:t.o

let with_beta t beta =
  rebuild t ~alpha:t.alpha ~beta ~tau:t.tau ~tau_scale:t.tau_scale ~u:t.u ~o:t.o

let with_tau t tau =
  rebuild t ~alpha:t.alpha ~beta:t.beta ~tau ~tau_scale:t.tau_scale ~u:t.u ~o:t.o

let with_tau_scale t tau_scale =
  rebuild t ~alpha:t.alpha ~beta:t.beta ~tau:t.tau ~tau_scale ~u:t.u ~o:t.o

let with_weight arr ty w =
  let a = Array.copy arr in
  a.(Tag_type.to_int ty) <- w;
  a

let with_u t ty w =
  rebuild t ~alpha:t.alpha ~beta:t.beta ~tau:t.tau ~tau_scale:t.tau_scale
    ~u:(with_weight t.u ty w) ~o:t.o

let with_o t ty w =
  rebuild t ~alpha:t.alpha ~beta:t.beta ~tau:t.tau ~tau_scale:t.tau_scale
    ~u:t.u ~o:(with_weight t.o ty w)

let tau_effective t = t.tau *. t.tau_scale

let pp ppf t =
  Format.fprintf ppf
    "{alpha=%g; beta=%g; tau=%g (x%g); N_R=%d; R=%d}" t.alpha t.beta t.tau
    t.tau_scale t.total_tag_space t.mem_capacity
