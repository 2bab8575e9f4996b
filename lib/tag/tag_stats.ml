type t = {
  counts : int ref Tag.Table.t;
  per_type_total : int array; (* copies per tag type *)
  per_type_distinct : int array; (* tags of the type with count > 0 *)
  mutable total : int;
}

let create () =
  {
    counts = Tag.Table.create 256;
    per_type_total = Array.make Tag_type.count 0;
    per_type_distinct = Array.make Tag_type.count 0;
    total = 0;
  }

(* Lookups use [find] rather than [find_opt]: no [Some] per call. *)
let cell t tag =
  match Tag.Table.find t.counts tag with
  | r -> r
  | exception Not_found ->
    let r = ref 0 in
    Tag.Table.add t.counts tag r;
    r

let incr t tag =
  let r = cell t tag in
  if !r = 0 then begin
    let ti = Tag_type.to_int (Tag.ty tag) in
    t.per_type_distinct.(ti) <- t.per_type_distinct.(ti) + 1
  end;
  incr r;
  let ti = Tag_type.to_int (Tag.ty tag) in
  t.per_type_total.(ti) <- t.per_type_total.(ti) + 1;
  t.total <- t.total + 1

let decr t tag =
  match Tag.Table.find t.counts tag with
  | exception Not_found | { contents = 0 } ->
    invalid_arg
      (Printf.sprintf "Tag_stats.decr: count of %s already zero"
         (Tag.to_string tag))
  | r ->
    Stdlib.decr r;
    let ti = Tag_type.to_int (Tag.ty tag) in
    t.per_type_total.(ti) <- t.per_type_total.(ti) - 1;
    t.total <- t.total - 1;
    if !r = 0 then t.per_type_distinct.(ti) <- t.per_type_distinct.(ti) - 1

let count t tag =
  match Tag.Table.find t.counts tag with r -> !r | exception Not_found -> 0

let total t = t.total
let per_type t ty = t.per_type_total.(Tag_type.to_int ty)
let distinct t = Array.fold_left ( + ) 0 t.per_type_distinct
let distinct_of_type t ty = t.per_type_distinct.(Tag_type.to_int ty)

(* Indices 0..7 are [Tag_type.all]'s order, so the sum is added up in
   the same order, to the same bits, as a fold over that list. *)
let weighted_total t o =
  let acc = ref 0.0 in
  for ti = 0 to Tag_type.count - 1 do
    let n = t.per_type_total.(ti) in
    if n > 0 then acc := !acc +. (o.(ti) *. float_of_int n)
  done;
  !acc

let fold t ~init ~f =
  Tag.Table.fold
    (fun tag r acc -> if !r > 0 then f acc tag !r else acc)
    t.counts init

let counts_array t =
  let l = fold t ~init:[] ~f:(fun acc _ n -> float_of_int n :: acc) in
  Array.of_list l

let counts_of_type t ty =
  let l =
    fold t ~init:[] ~f:(fun acc tag n ->
        if Tag_type.equal (Tag.ty tag) ty then float_of_int n :: acc else acc)
  in
  Array.of_list l

let snapshot t =
  fold t ~init:[] ~f:(fun acc tag n -> (tag, n) :: acc)
  |> List.sort (fun (a, _) (b, _) -> Tag.compare a b)

let copy t =
  let c = create () in
  Tag.Table.iter (fun tag r -> if !r > 0 then Tag.Table.add c.counts tag (ref !r)) t.counts;
  Array.blit t.per_type_total 0 c.per_type_total 0 Tag_type.count;
  Array.blit t.per_type_distinct 0 c.per_type_distinct 0 Tag_type.count;
  c.total <- t.total;
  c

let pp ppf t =
  Format.fprintf ppf "{total=%d; distinct=%d}" t.total (distinct t)
