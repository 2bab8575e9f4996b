type eviction = Fifo | Lru | Reject

let eviction_to_string = function
  | Fifo -> "fifo"
  | Lru -> "lru"
  | Reject -> "reject"

(* Lists are tiny (M_prov is ~10 in the paper), so a plain OCaml list
   kept oldest-first is both simple and fast enough; all operations are
   O(M_prov). *)
type t = {
  cap : int;
  evict : eviction;
  mutable tags : Tag.t list; (* oldest first / least-recent first *)
  mutable card : int;
}

let create ?(eviction = Fifo) cap =
  if cap < 1 then invalid_arg "Provenance.create: capacity must be >= 1";
  { cap; evict = eviction; tags = []; card = 0 }

let capacity t = t.cap
let eviction t = t.evict
let cardinal t = t.card
let space_left t = t.cap - t.card
let is_empty t = t.card = 0
let is_full t = t.card >= t.cap
let mem t tag = Tag.mem tag t.tags

type add_result =
  | Added
  | Added_evicting of Tag.t
  | Already_present
  | Rejected

let add t tag =
  if mem t tag then Already_present
  else if t.card < t.cap then begin
    t.tags <- t.tags @ [ tag ];
    t.card <- t.card + 1;
    Added
  end
  else
    match t.evict with
    | Reject -> Rejected
    | Fifo | Lru -> (
      match t.tags with
      | [] -> assert false (* card >= cap >= 1 implies non-empty *)
      | victim :: rest ->
        t.tags <- rest @ [ tag ];
        Added_evicting victim)

let remove t tag =
  if mem t tag then begin
    t.tags <- List.filter (fun x -> not (Tag.equal x tag)) t.tags;
    t.card <- t.card - 1;
    true
  end
  else false

let touch t tag =
  match t.evict with
  | Fifo | Reject -> ()
  | Lru ->
    if mem t tag then
      t.tags <- List.filter (fun x -> not (Tag.equal x tag)) t.tags @ [ tag ]

let rec distinct = function
  | [] -> true
  | tag :: rest -> (not (Tag.mem tag rest)) && distinct rest

let assign t tags =
  let n = List.length tags in
  if n <= t.cap && distinct tags then begin
    t.tags <- tags;
    t.card <- n;
    true
  end
  else false

let clear t =
  let present = t.tags in
  t.tags <- [];
  t.card <- 0;
  present

let to_list t = t.tags
let iter t f = List.iter f t.tags
let fold t ~init ~f = List.fold_left f init t.tags
let exists t p = List.exists p t.tags
let copy t = { t with tags = t.tags }

let pp ppf t =
  Format.fprintf ppf "[%a]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
       Tag.pp)
    t.tags
