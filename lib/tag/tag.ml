type t = { ty : Tag_type.t; id : int }

let make ty id = { ty; id }
let ty t = t.ty
let id t = t.id
(* types are constant constructors, so [==] compares them *)
let equal a b = a.ty == b.ty && a.id = b.id

let rec mem tag = function
  | [] -> false
  | x :: rest -> equal x tag || mem tag rest

let compare a b =
  match Tag_type.compare a.ty b.ty with 0 -> Int.compare a.id b.id | c -> c

let hash t = (Tag_type.to_int t.ty * 0x1000003) lxor t.id
let to_string t = Printf.sprintf "%s#%d" (Tag_type.to_string t.ty) t.id
let pp ppf t = Format.pp_print_string ppf (to_string t)

let encode enc t =
  Mitos_util.Codec.Enc.uint enc (Tag_type.to_int t.ty);
  Mitos_util.Codec.Enc.uint enc t.id

let decode dec =
  let ty = Tag_type.of_int (Mitos_util.Codec.Dec.uint dec) in
  let id = Mitos_util.Codec.Dec.uint dec in
  { ty; id }

type registry = { counters : int array }

let registry () = { counters = Array.make Tag_type.count 0 }

let fresh reg ty =
  let idx = Tag_type.to_int ty in
  reg.counters.(idx) <- reg.counters.(idx) + 1;
  { ty; id = reg.counters.(idx) }

let created reg ty = reg.counters.(Tag_type.to_int ty)
let total_created reg = Array.fold_left ( + ) 0 reg.counters

module Table = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
