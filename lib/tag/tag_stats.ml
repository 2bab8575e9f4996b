(* Every tag ever counted has one [int ref] cell, reached two ways:
   through [index] for [count]/[incr]/[decr], and through [counts] for
   the folds, whose order ([Tag.Table]'s) reaches the float sums and
   reports built on them. A cell is never removed; a tag whose count
   drops to 0 keeps it. *)
type t = {
  counts : int ref Tag.Table.t;
  mutable index : index;
  per_type_total : int array; (* copies per tag type *)
  per_type_distinct : int array; (* tags of the type with count > 0 *)
  mutable total : int;
}

(* Open addressing with linear probing, at most half full. Slot [i]
   holds the tag's id at [keys.(2 * i)] and its type index at
   [keys.(2 * i + 1)], which is -1 while the slot is empty. *)
and index = { keys : int array; cells : int ref array; mutable used : int }

let no_cell = ref 0

let index_of_slots n =
  { keys = Array.make (2 * n) (-1); cells = Array.make n no_cell; used = 0 }

(* The splitmix64 finaliser, cut to OCaml's 63-bit ints: every bit of
   the id and the type reaches the low bits the slot is taken from.
   ([Tag.hash] leaves them to the id alone.) *)
let mix ty id =
  let h = id + (ty * 0x1e3779b97f4a7c15) in
  let h = (h lxor (h lsr 30)) * 0x3f58476d1ce4e5b9 in
  let h = (h lxor (h lsr 27)) * 0x14d049bb133111eb in
  h lxor (h lsr 31)

(* The slot holding [(ty, id)], or [lnot] of the empty slot where it
   would go. *)
let rec probe keys mask ty id i =
  let k = 2 * i in
  let t = Array.unsafe_get keys (k + 1) in
  if t = ty && Array.unsafe_get keys k = id then i
  else if t < 0 then lnot i
  else probe keys mask ty id ((i + 1) land mask)

let slot ix ty id =
  let mask = Array.length ix.cells - 1 in
  probe ix.keys mask ty id (mix ty id land mask)

let place ix i ty id r =
  ix.keys.(2 * i) <- id;
  ix.keys.((2 * i) + 1) <- ty;
  ix.cells.(i) <- r;
  ix.used <- ix.used + 1

let grow t =
  let old = t.index in
  let ix = index_of_slots (2 * Array.length old.cells) in
  for i = 0 to Array.length old.cells - 1 do
    let ty = old.keys.((2 * i) + 1) in
    if ty >= 0 then begin
      let id = old.keys.(2 * i) in
      place ix (lnot (slot ix ty id)) ty id old.cells.(i)
    end
  done;
  t.index <- ix

let create () =
  {
    counts = Tag.Table.create 256;
    index = index_of_slots 512;
    per_type_total = Array.make Tag_type.count 0;
    per_type_distinct = Array.make Tag_type.count 0;
    total = 0;
  }

(* A new tag goes into [counts] too, in first-insertion order. *)
let cell t (tag : Tag.t) ti =
  let i = slot t.index ti tag.id in
  if i >= 0 then Array.unsafe_get t.index.cells i
  else begin
    let r = ref 0 in
    Tag.Table.add t.counts tag r;
    place t.index (lnot i) ti tag.id r;
    if 2 * t.index.used > Array.length t.index.cells then grow t;
    r
  end

let incr t (tag : Tag.t) =
  let ti = Tag_type.to_int tag.ty in
  let r = cell t tag ti in
  if !r = 0 then t.per_type_distinct.(ti) <- t.per_type_distinct.(ti) + 1;
  incr r;
  t.per_type_total.(ti) <- t.per_type_total.(ti) + 1;
  t.total <- t.total + 1

let decr t (tag : Tag.t) =
  let ti = Tag_type.to_int tag.ty in
  let i = slot t.index ti tag.id in
  let r = if i >= 0 then Array.unsafe_get t.index.cells i else no_cell in
  if !r = 0 then
    invalid_arg
      (Printf.sprintf "Tag_stats.decr: count of %s already zero"
         (Tag.to_string tag));
  Stdlib.decr r;
  t.per_type_total.(ti) <- t.per_type_total.(ti) - 1;
  t.total <- t.total - 1;
  if !r = 0 then t.per_type_distinct.(ti) <- t.per_type_distinct.(ti) - 1

let count t (tag : Tag.t) =
  let i = slot t.index (Tag_type.to_int tag.ty) tag.id in
  if i >= 0 then !(Array.unsafe_get t.index.cells i) else 0

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
  Tag.Table.iter
    (fun tag r -> if !r > 0 then (cell c tag (Tag_type.to_int tag.ty)) := !r)
    t.counts;
  Array.blit t.per_type_total 0 c.per_type_total 0 Tag_type.count;
  Array.blit t.per_type_distinct 0 c.per_type_distinct 0 Tag_type.count;
  c.total <- t.total;
  c

let pp ppf t =
  Format.fprintf ppf "{total=%d; distinct=%d}" t.total (distinct t)
