type eviction_strategy =
  | Structural of Provenance.eviction
  | Least_marginal

let strategy_to_string = function
  | Structural e -> Provenance.eviction_to_string e
  | Least_marginal -> "least-marginal"

type backend = Hashed | Paged

let backend_to_string = function Hashed -> "hashed" | Paged -> "paged"

(* Byte-address -> provenance store. The two implementations trade
   lookup cost against footprint; see the .mli. *)
module Store = struct
  let page_bits = 12
  let page_size = 1 lsl page_bits

  type t =
    | Hash of (int, Provenance.t) Hashtbl.t array
        (* one sub-table per shard; an address's shard is a pure
           function of the address, so concurrent workers touching
           disjoint shards never collide on one table *)
    | Pages of Provenance.t option array option array

  (* Knuth multiplicative mix before the shard reduction: byte
     addresses arrive sequentially, and the low bits alone would pin
     whole buffers to one shard. Pure integer arithmetic — the same
     address lands in the same shard on every run and every machine. *)
  let shard_of_addr n addr = if n = 1 then 0 else (addr * 0x9E3779B1) lsr 16 mod n

  let create backend ~capacity ~shards =
    match backend with
    | Hashed ->
      let per_table = max 64 (4096 / shards) in
      Hash (Array.init shards (fun _ -> Hashtbl.create per_table))
    | Paged ->
      Pages (Array.make ((capacity + page_size - 1) / page_size) None)

  let table tables addr = tables.(shard_of_addr (Array.length tables) addr)

  let find t addr =
    match t with
    | Hash tables -> Hashtbl.find_opt (table tables addr) addr
    | Pages pages -> (
      match pages.(addr lsr page_bits) with
      | None -> None
      | Some page -> page.(addr land (page_size - 1)))

  let add t addr prov =
    match t with
    (* replace, not add: a re-add for a live address must never stack
       a shadowed duplicate binding (the paged backend overwrites, so
       the two backends now agree) *)
    | Hash tables -> Hashtbl.replace (table tables addr) addr prov
    | Pages pages ->
      let pi = addr lsr page_bits in
      let page =
        match pages.(pi) with
        | Some page -> page
        | None ->
          let page = Array.make page_size None in
          pages.(pi) <- Some page;
          page
      in
      page.(addr land (page_size - 1)) <- Some prov

  let remove t addr =
    match t with
    | Hash tables -> Hashtbl.remove (table tables addr) addr
    | Pages pages -> (
      match pages.(addr lsr page_bits) with
      | None -> ()
      | Some page -> page.(addr land (page_size - 1)) <- None)

  (* shard 0..N-1 in index order, each sub-table in its own (stable
     for a fixed insertion history) order — deterministic for the
     deterministic replay pipelines, like the single table was *)
  let iter t f =
    match t with
    | Hash tables -> Array.iter (fun h -> Hashtbl.iter f h) tables
    | Pages pages ->
      Array.iteri
        (fun pi page ->
          match page with
          | None -> ()
          | Some page ->
            Array.iteri
              (fun slot prov ->
                match prov with
                | Some prov -> f ((pi lsl page_bits) lor slot) prov
                | None -> ())
              page)
        pages

  let fold t f init =
    let acc = ref init in
    iter t (fun addr prov -> acc := f addr prov !acc);
    !acc

  let shards = function Hash tables -> Array.length tables | Pages _ -> 1

  let shard_occupancy t =
    let live h =
      Hashtbl.fold
        (fun _ p acc -> if Provenance.is_empty p then acc else acc + 1)
        h 0
    in
    match t with
    | Hash tables -> Array.map live tables
    | Pages _ ->
      [|
        fold t (fun _ p acc -> if Provenance.is_empty p then acc else acc + 1) 0;
      |]

  let reset t =
    match t with
    | Hash tables -> Array.iter Hashtbl.reset tables
    | Pages pages -> Array.fill pages 0 (Array.length pages) None
end

type evict_event = {
  at : [ `Mem of int | `Reg of int ];
  victim : Tag.t;
  incoming : Tag.t;
}

type t = {
  mem : Store.t;
  store_backend : backend;
  regs : Provenance.t array;
  stats : Tag_stats.t;
  mem_capacity : int;
  m_prov : int;
  strategy : eviction_strategy;
  list_eviction : Provenance.eviction;
  mutable evict_hook : (evict_event -> unit) option;
}

(* Process default for the Hashed backend's shard count, so the CLI's
   --shards flag reaches every Shadow.create in the experiment
   pipelines without threading a parameter through each one. *)
let default_shards_cell = ref 1

let set_default_shards n =
  if n < 1 then invalid_arg "Shadow.set_default_shards: shards < 1";
  default_shards_cell := n

let default_shards () = !default_shards_cell

let create ?(strategy = Structural Provenance.Fifo) ?(backend = Hashed) ?shards
    ~mem_capacity ~num_regs ~m_prov () =
  if mem_capacity < 1 then invalid_arg "Shadow.create: mem_capacity < 1";
  if m_prov < 1 then invalid_arg "Shadow.create: m_prov < 1";
  let shards =
    match shards with
    | None -> !default_shards_cell
    | Some n ->
      if n < 1 then invalid_arg "Shadow.create: shards < 1";
      n
  in
  let list_eviction =
    match strategy with
    | Structural e -> e
    (* under Least_marginal the shadow evicts explicitly before the
       list ever overflows, so the structural policy is irrelevant *)
    | Least_marginal -> Provenance.Fifo
  in
  {
    mem = Store.create backend ~capacity:mem_capacity ~shards;
    store_backend = backend;
    regs =
      Array.init num_regs (fun _ ->
          Provenance.create ~eviction:list_eviction m_prov);
    stats = Tag_stats.create ();
    mem_capacity;
    m_prov;
    strategy;
    list_eviction;
    evict_hook = None;
  }

let backend t = t.store_backend
let shards t = Store.shards t.mem
let shard_occupancy t = Store.shard_occupancy t.mem
let on_evict t hook = t.evict_hook <- hook

let stats t = t.stats
let mem_capacity t = t.mem_capacity
let m_prov t = t.m_prov
let num_regs t = Array.length t.regs
let total_tag_space t = (t.mem_capacity + num_regs t) * t.m_prov

let pollution t ~o =
  Tag_stats.weighted_total t.stats o /. float_of_int (total_tag_space t)

let check_addr t addr =
  if addr < 0 || addr >= t.mem_capacity then
    invalid_arg (Printf.sprintf "Shadow: address %d out of range" addr)

let prov_of_addr t addr =
  check_addr t addr;
  match Store.find t.mem addr with
  | Some p -> p
  | None ->
    let p = Provenance.create ~eviction:t.list_eviction t.m_prov in
    Store.add t.mem addr p;
    p

let drop_if_empty t addr p =
  if Provenance.is_empty p then Store.remove t.mem addr

let fire_evict t ~at ~victim ~incoming =
  match t.evict_hook with
  | None -> ()
  | Some hook -> hook { at; victim; incoming }

let account t ~at (result : Provenance.add_result) tag =
  (match result with
  | Provenance.Added -> Tag_stats.incr t.stats tag
  | Provenance.Added_evicting victim ->
    Tag_stats.incr t.stats tag;
    Tag_stats.decr t.stats victim;
    fire_evict t ~at ~victim ~incoming:tag
  | Provenance.Already_present | Provenance.Rejected -> ());
  result

(* Under Least_marginal, a full list makes room by dropping the member
   with the most copies system-wide (smallest per-copy undertainting
   benefit) — unless the newcomer itself is the most-copied, in which
   case it is the one rejected. *)
let add_with_strategy t ~at p tag =
  match t.strategy with
  | Structural _ -> account t ~at (Provenance.add p tag) tag
  | Least_marginal ->
    if Provenance.is_full p && not (Provenance.mem p tag) then begin
      let victim =
        Provenance.fold p ~init:tag ~f:(fun worst candidate ->
            if Tag_stats.count t.stats candidate > Tag_stats.count t.stats worst
            then candidate
            else worst)
      in
      if Tag.equal victim tag then Provenance.Rejected
      else begin
        ignore (Provenance.remove p victim);
        Tag_stats.decr t.stats victim;
        match account t ~at (Provenance.add p tag) tag with
        | Provenance.Added ->
          fire_evict t ~at ~victim ~incoming:tag;
          Provenance.Added_evicting victim
        | other -> other
      end
    end
    else account t ~at (Provenance.add p tag) tag

let add_tag_addr t addr tag =
  add_with_strategy t ~at:(`Mem addr) (prov_of_addr t addr) tag

let add_tag_reg t r tag = add_with_strategy t ~at:(`Reg r) t.regs.(r) tag

let remove_tag_addr t addr tag =
  check_addr t addr;
  match Store.find t.mem addr with
  | None -> false
  | Some p ->
    let removed = Provenance.remove p tag in
    if removed then Tag_stats.decr t.stats tag;
    drop_if_empty t addr p;
    removed

let clear_prov t p =
  List.iter (Tag_stats.decr t.stats) (Provenance.clear p)

let clear_addr t addr =
  check_addr t addr;
  match Store.find t.mem addr with
  | None -> ()
  | Some p ->
    clear_prov t p;
    Store.remove t.mem addr

let clear_reg t r = clear_prov t t.regs.(r)

let tags_of_addr t addr =
  check_addr t addr;
  match Store.find t.mem addr with
  | None -> []
  | Some p -> Provenance.to_list p

let tags_of_reg t r = Provenance.to_list t.regs.(r)

(* count in (or out) each tag of the list that [other] does not hold *)
let rec count_missing stats ~arrived other = function
  | [] -> ()
  | tag :: rest ->
    if not (Tag.mem tag other) then
      if arrived then Tag_stats.incr stats tag else Tag_stats.decr stats tag;
    count_missing stats ~arrived other rest

(* Rewriting a list to what it already holds changes nothing, so it is
   skipped. A duplicate-free list that fits is assigned whole, and only
   the tags that left or arrived move [Tag_stats]: the same counts as
   clearing and re-adding, with no eviction possible. Anything else
   (overflow, duplicates) clears and re-adds tag by tag, so every
   eviction goes through the strategy and [on_evict]. *)
let set_prov_tags t ~at p tags =
  let resident = Provenance.to_list p in
  if resident == tags || List.equal Tag.equal resident tags then ()
  else if Provenance.assign p tags then begin
    count_missing t.stats ~arrived:false tags resident;
    count_missing t.stats ~arrived:true resident tags
  end
  else begin
    clear_prov t p;
    List.iter (fun tag -> ignore (add_with_strategy t ~at p tag)) tags
  end

let set_addr_tags t addr tags =
  match tags with
  | [] -> clear_addr t addr
  | _ -> set_prov_tags t ~at:(`Mem addr) (prov_of_addr t addr) tags

let set_reg_tags t r tags = set_prov_tags t ~at:(`Reg r) t.regs.(r) tags

let union_into_addr t addr tags =
  match tags with
  | [] -> ()
  | _ ->
    let p = prov_of_addr t addr in
    List.iter (fun tag -> ignore (add_with_strategy t ~at:(`Mem addr) p tag)) tags

let union_into_reg t r tags =
  List.iter
    (fun tag -> ignore (add_with_strategy t ~at:(`Reg r) t.regs.(r) tag))
    tags

let space_left_addr t addr =
  check_addr t addr;
  match Store.find t.mem addr with
  | None -> t.m_prov
  | Some p -> Provenance.space_left p

let space_left_reg t r = Provenance.space_left t.regs.(r)

let is_tainted_addr t addr =
  check_addr t addr;
  match Store.find t.mem addr with
  | None -> false
  | Some p -> not (Provenance.is_empty p)

let is_tainted_reg t r = not (Provenance.is_empty t.regs.(r))

let addr_has_type t addr ty =
  List.exists (fun tag -> Tag_type.equal (Tag.ty tag) ty) (tags_of_addr t addr)

let tainted_bytes t =
  Store.fold t.mem
    (fun _ p acc -> if Provenance.is_empty p then acc else acc + 1)
    0

let tainted_regs t =
  Array.fold_left
    (fun acc p -> if Provenance.is_empty p then acc else acc + 1)
    0 t.regs

let bytes_with_both t ty1 ty2 =
  Store.fold t.mem
    (fun _ p acc ->
      let has ty = Provenance.exists p (fun tag -> Tag_type.equal (Tag.ty tag) ty) in
      if has ty1 && has ty2 then acc + 1 else acc)
    0

let bytes_with_type t ty =
  Store.fold t.mem
    (fun _ p acc ->
      if Provenance.exists p (fun tag -> Tag_type.equal (Tag.ty tag) ty) then
        acc + 1
      else acc)
    0

(* Footprint model: a hash-table slot (key + pointer + bucket overhead)
   per tracked byte plus a fixed cost per provenance entry. The
   constants approximate a C implementation (FAROS uses 16-byte list
   nodes); absolute values matter less than comparability between
   policies. *)
let bytes_per_slot = 24
let bytes_per_entry = 16

let footprint_bytes t =
  Store.fold t.mem
    (fun _ p acc -> acc + bytes_per_slot + (bytes_per_entry * Provenance.cardinal p))
    0

let iter_tainted t f =
  Store.iter t.mem (fun addr p ->
      if not (Provenance.is_empty p) then f addr (Provenance.to_list p))

let reset t =
  Store.iter t.mem (fun _ p -> clear_prov t p);
  Store.reset t.mem;
  Array.iter (fun p -> clear_prov t p) t.regs

(* -- checkpointing --------------------------------------------------- *)

let checkpoint_magic = "MITSHDW1"

let encode_strategy enc = function
  | Structural Provenance.Fifo -> Mitos_util.Codec.Enc.uint enc 0
  | Structural Provenance.Lru -> Mitos_util.Codec.Enc.uint enc 1
  | Structural Provenance.Reject -> Mitos_util.Codec.Enc.uint enc 2
  | Least_marginal -> Mitos_util.Codec.Enc.uint enc 3

let decode_strategy dec =
  match Mitos_util.Codec.Dec.uint dec with
  | 0 -> Structural Provenance.Fifo
  | 1 -> Structural Provenance.Lru
  | 2 -> Structural Provenance.Reject
  | 3 -> Least_marginal
  | n ->
    raise (Mitos_util.Codec.Malformed (Printf.sprintf "shadow strategy %d" n))

let to_string t =
  let module E = Mitos_util.Codec.Enc in
  let enc = E.create ~initial_size:4096 () in
  E.string enc checkpoint_magic;
  E.uint enc t.mem_capacity;
  E.uint enc (Array.length t.regs);
  E.uint enc t.m_prov;
  encode_strategy enc t.strategy;
  E.uint enc (match t.store_backend with Hashed -> 0 | Paged -> 1);
  (* memory entries: count then (addr, tags) pairs *)
  let entries =
    Store.fold t.mem
      (fun addr p acc ->
        if Provenance.is_empty p then acc
        else (addr, Provenance.to_list p) :: acc)
      []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  E.list enc
    (fun (addr, tags) ->
      E.uint enc addr;
      E.list enc (Tag.encode enc) tags)
    entries;
  E.array enc
    (fun p -> E.list enc (Tag.encode enc) (Provenance.to_list p))
    t.regs;
  E.contents enc

let of_string data =
  let module D = Mitos_util.Codec.Dec in
  let dec = D.of_string data in
  if D.string dec <> checkpoint_magic then
    raise (Mitos_util.Codec.Malformed "bad shadow checkpoint magic");
  let mem_capacity = D.uint dec in
  let num_regs = D.uint dec in
  let m_prov = D.uint dec in
  let strategy = decode_strategy dec in
  let backend =
    match D.uint dec with
    | 0 -> Hashed
    | 1 -> Paged
    | n -> raise (Mitos_util.Codec.Malformed (Printf.sprintf "backend %d" n))
  in
  let t = create ~strategy ~backend ~mem_capacity ~num_regs ~m_prov () in
  let entries =
    D.list dec (fun dec ->
        let addr = D.uint dec in
        let tags = D.list dec Tag.decode in
        (addr, tags))
  in
  List.iter
    (fun (addr, tags) ->
      if List.length tags > m_prov then
        raise (Mitos_util.Codec.Malformed "provenance list exceeds M_prov");
      (* lists are within capacity, so adds never evict and the exact
         order is reproduced *)
      List.iter (fun tag -> ignore (add_tag_addr t addr tag)) tags)
    entries;
  let regs = D.array dec (fun dec -> D.list dec Tag.decode) in
  if Array.length regs <> num_regs then
    raise (Mitos_util.Codec.Malformed "register count mismatch");
  Array.iteri
    (fun r tags -> List.iter (fun tag -> ignore (add_tag_reg t r tag)) tags)
    regs;
  D.expect_end dec;
  t
