open Mitos_tag

let tag ty i = Tag.make ty i
let net i = tag Tag_type.Network i
let file i = tag Tag_type.File i

(* -- Tag_type --------------------------------------------------------- *)

let test_type_int_roundtrip () =
  List.iter
    (fun ty ->
      Alcotest.(check bool) "of_int . to_int = id" true
        (Tag_type.equal ty (Tag_type.of_int (Tag_type.to_int ty))))
    Tag_type.all;
  Alcotest.(check int) "count" (List.length Tag_type.all) Tag_type.count;
  Alcotest.check_raises "out of range" (Invalid_argument "Tag_type.of_int: 99")
    (fun () -> ignore (Tag_type.of_int 99))

let test_type_string_roundtrip () =
  List.iter
    (fun ty ->
      Alcotest.(check bool) "of_string . to_string = id" true
        (Tag_type.equal ty (Tag_type.of_string (Tag_type.to_string ty))))
    Tag_type.all

let test_type_indices_dense_and_distinct () =
  let indices = List.map Tag_type.to_int Tag_type.all in
  Alcotest.(check (list int)) "dense 0..n-1"
    (List.init Tag_type.count Fun.id)
    (List.sort compare indices)

(* -- Tag --------------------------------------------------------------- *)

let test_tag_equality () =
  Alcotest.(check bool) "equal" true (Tag.equal (net 1) (net 1));
  Alcotest.(check bool) "id differs" false (Tag.equal (net 1) (net 2));
  Alcotest.(check bool) "type differs" false (Tag.equal (net 1) (file 1));
  Alcotest.(check int) "compare eq" 0 (Tag.compare (net 3) (net 3));
  Alcotest.(check bool) "hash consistent" true
    (Tag.hash (net 5) = Tag.hash (net 5))

let test_tag_registry () =
  let reg = Tag.registry () in
  let a = Tag.fresh reg Tag_type.Network in
  let b = Tag.fresh reg Tag_type.Network in
  let c = Tag.fresh reg Tag_type.File in
  Alcotest.(check int) "first network id" 1 (Tag.id a);
  Alcotest.(check int) "second network id" 2 (Tag.id b);
  Alcotest.(check int) "file counter independent" 1 (Tag.id c);
  Alcotest.(check int) "created network" 2 (Tag.created reg Tag_type.Network);
  Alcotest.(check int) "total" 3 (Tag.total_created reg)

let test_tag_codec () =
  let enc = Mitos_util.Codec.Enc.create () in
  Tag.encode enc (tag Tag_type.Export_table 42);
  let dec = Mitos_util.Codec.Dec.of_string (Mitos_util.Codec.Enc.contents enc) in
  Alcotest.(check bool) "roundtrip" true
    (Tag.equal (tag Tag_type.Export_table 42) (Tag.decode dec))

let test_tag_to_string () =
  Alcotest.(check string) "render" "network#7" (Tag.to_string (net 7))

(* -- Provenance -------------------------------------------------------- *)

let test_prov_add_and_order () =
  let p = Provenance.create 3 in
  Alcotest.(check bool) "empty" true (Provenance.is_empty p);
  Alcotest.(check bool) "added" true (Provenance.add p (net 1) = Provenance.Added);
  Alcotest.(check bool) "added2" true (Provenance.add p (net 2) = Provenance.Added);
  Alcotest.(check bool) "mem" true (Provenance.mem p (net 1));
  Alcotest.(check (list string)) "oldest first" [ "network#1"; "network#2" ]
    (List.map Tag.to_string (Provenance.to_list p))

let test_prov_no_duplicates () =
  (* constraint Eq. (7): a byte never holds two copies of one tag *)
  let p = Provenance.create 3 in
  ignore (Provenance.add p (net 1));
  Alcotest.(check bool) "duplicate rejected" true
    (Provenance.add p (net 1) = Provenance.Already_present);
  Alcotest.(check int) "cardinal 1" 1 (Provenance.cardinal p)

let test_prov_fifo_eviction () =
  let p = Provenance.create 2 in
  ignore (Provenance.add p (net 1));
  ignore (Provenance.add p (net 2));
  (match Provenance.add p (net 3) with
  | Provenance.Added_evicting victim ->
    Alcotest.(check string) "oldest evicted" "network#1" (Tag.to_string victim)
  | _ -> Alcotest.fail "expected eviction");
  Alcotest.(check (list string)) "fifo order" [ "network#2"; "network#3" ]
    (List.map Tag.to_string (Provenance.to_list p))

let test_prov_lru_eviction () =
  let p = Provenance.create ~eviction:Provenance.Lru 2 in
  ignore (Provenance.add p (net 1));
  ignore (Provenance.add p (net 2));
  Provenance.touch p (net 1);
  (* now net#2 is least recent *)
  (match Provenance.add p (net 3) with
  | Provenance.Added_evicting victim ->
    Alcotest.(check string) "lru evicted" "network#2" (Tag.to_string victim)
  | _ -> Alcotest.fail "expected eviction");
  Alcotest.(check bool) "net1 kept" true (Provenance.mem p (net 1))

let test_prov_reject () =
  let p = Provenance.create ~eviction:Provenance.Reject 1 in
  ignore (Provenance.add p (net 1));
  Alcotest.(check bool) "rejected" true (Provenance.add p (net 2) = Provenance.Rejected);
  Alcotest.(check bool) "original kept" true (Provenance.mem p (net 1))

let test_prov_remove_clear () =
  let p = Provenance.create 4 in
  ignore (Provenance.add p (net 1));
  ignore (Provenance.add p (file 1));
  Alcotest.(check bool) "removed" true (Provenance.remove p (net 1));
  Alcotest.(check bool) "absent now" false (Provenance.remove p (net 1));
  Alcotest.(check int) "one left" 1 (Provenance.cardinal p);
  let cleared = Provenance.clear p in
  Alcotest.(check int) "clear returns" 1 (List.length cleared);
  Alcotest.(check bool) "empty after clear" true (Provenance.is_empty p)

let test_prov_capacity_validation () =
  Alcotest.check_raises "zero capacity"
    (Invalid_argument "Provenance.create: capacity must be >= 1") (fun () ->
      ignore (Provenance.create 0))

let qcheck_prov_invariants =
  (* random op sequences: cardinal <= cap, mem agrees with to_list,
     no duplicates ever *)
  QCheck.Test.make ~name:"provenance invariants under random ops" ~count:200
    QCheck.(pair (int_range 1 5) (small_list (pair (int_range 0 2) (int_range 1 6))))
    (fun (cap, ops) ->
      let p = Provenance.create cap in
      List.iter
        (fun (op, id) ->
          let t = net id in
          match op with
          | 0 -> ignore (Provenance.add p t)
          | 1 -> ignore (Provenance.remove p t)
          | _ -> Provenance.touch p t)
        ops;
      let l = Provenance.to_list p in
      Provenance.cardinal p = List.length l
      && List.length l <= cap
      && List.length (List.sort_uniq Tag.compare l) = List.length l)

(* -- Tag_stats ---------------------------------------------------------- *)

let test_stats_incr_decr () =
  let s = Tag_stats.create () in
  Tag_stats.incr s (net 1);
  Tag_stats.incr s (net 1);
  Tag_stats.incr s (file 1);
  Alcotest.(check int) "count net1" 2 (Tag_stats.count s (net 1));
  Alcotest.(check int) "total" 3 (Tag_stats.total s);
  Alcotest.(check int) "per type" 2 (Tag_stats.per_type s Tag_type.Network);
  Alcotest.(check int) "distinct" 2 (Tag_stats.distinct s);
  Tag_stats.decr s (net 1);
  Alcotest.(check int) "after decr" 1 (Tag_stats.count s (net 1));
  Tag_stats.decr s (net 1);
  Alcotest.(check int) "distinct drops" 1 (Tag_stats.distinct s);
  Alcotest.(check int) "never seen" 0 (Tag_stats.count s (net 99))

let test_stats_decr_underflow () =
  let s = Tag_stats.create () in
  Alcotest.(check bool) "underflow raises" true
    (try Tag_stats.decr s (net 1); false with Invalid_argument _ -> true)

let test_stats_weighted_total () =
  let s = Tag_stats.create () in
  Tag_stats.incr s (net 1);
  Tag_stats.incr s (net 2);
  Tag_stats.incr s (file 1);
  let o =
    Array.init Tag_type.count (fun i ->
        if i = Tag_type.to_int Tag_type.Network then 2.0 else 0.5)
  in
  Alcotest.(check (float 1e-9)) "weighted" 4.5 (Tag_stats.weighted_total s o)

let test_stats_snapshot_and_arrays () =
  let s = Tag_stats.create () in
  Tag_stats.incr s (net 2);
  Tag_stats.incr s (net 1);
  Tag_stats.incr s (net 1);
  let snap = Tag_stats.snapshot s in
  Alcotest.(check (list (pair string int))) "sorted snapshot"
    [ ("network#1", 2); ("network#2", 1) ]
    (List.map (fun (t, n) -> (Tag.to_string t, n)) snap);
  Alcotest.(check int) "counts_array size" 2
    (Array.length (Tag_stats.counts_array s));
  Alcotest.(check int) "per-type array" 2
    (Array.length (Tag_stats.counts_of_type s Tag_type.Network));
  Alcotest.(check int) "other type empty" 0
    (Array.length (Tag_stats.counts_of_type s Tag_type.File))

let test_stats_copy_independent () =
  let s = Tag_stats.create () in
  Tag_stats.incr s (net 1);
  let c = Tag_stats.copy s in
  Tag_stats.incr s (net 1);
  Alcotest.(check int) "copy unchanged" 1 (Tag_stats.count c (net 1));
  Alcotest.(check int) "original updated" 2 (Tag_stats.count s (net 1))

(* -- Shadow -------------------------------------------------------------- *)

let mk_shadow ?(m_prov = 4) () =
  Shadow.create ~mem_capacity:1024 ~num_regs:8 ~m_prov ()

let test_shadow_taint_and_query () =
  let sh = mk_shadow () in
  ignore (Shadow.add_tag_addr sh 10 (net 1));
  ignore (Shadow.add_tag_addr sh 10 (file 1));
  ignore (Shadow.add_tag_reg sh 3 (net 1));
  Alcotest.(check bool) "addr tainted" true (Shadow.is_tainted_addr sh 10);
  Alcotest.(check bool) "reg tainted" true (Shadow.is_tainted_reg sh 3);
  Alcotest.(check bool) "untainted addr" false (Shadow.is_tainted_addr sh 11);
  Alcotest.(check int) "tags of addr" 2 (List.length (Shadow.tags_of_addr sh 10));
  Alcotest.(check bool) "has type" true
    (Shadow.addr_has_type sh 10 Tag_type.File);
  Alcotest.(check int) "tainted bytes" 1 (Shadow.tainted_bytes sh);
  Alcotest.(check int) "tainted regs" 1 (Shadow.tainted_regs sh);
  Alcotest.(check int) "count accounting" 2
    (Tag_stats.count (Shadow.stats sh) (net 1))

let test_shadow_set_replace_semantics () =
  let sh = mk_shadow () in
  ignore (Shadow.add_tag_addr sh 5 (net 1));
  Shadow.set_addr_tags sh 5 [ file 1; file 2 ];
  Alcotest.(check int) "replaced" 0 (Tag_stats.count (Shadow.stats sh) (net 1));
  Alcotest.(check int) "two new" 2 (List.length (Shadow.tags_of_addr sh 5));
  Shadow.set_addr_tags sh 5 [];
  Alcotest.(check bool) "cleared via empty set" false (Shadow.is_tainted_addr sh 5);
  Alcotest.(check int) "stats drained" 0 (Tag_stats.total (Shadow.stats sh))

let test_shadow_union_semantics () =
  let sh = mk_shadow () in
  Shadow.set_addr_tags sh 7 [ net 1 ];
  Shadow.union_into_addr sh 7 [ net 1; file 1 ];
  Alcotest.(check int) "no dup, one new" 2 (List.length (Shadow.tags_of_addr sh 7));
  Alcotest.(check int) "net count still 1" 1
    (Tag_stats.count (Shadow.stats sh) (net 1))

let test_shadow_space_left () =
  let sh = mk_shadow ~m_prov:2 () in
  Alcotest.(check int) "fresh byte" 2 (Shadow.space_left_addr sh 0);
  ignore (Shadow.add_tag_addr sh 0 (net 1));
  Alcotest.(check int) "one used" 1 (Shadow.space_left_addr sh 0);
  Alcotest.(check int) "reg space" 2 (Shadow.space_left_reg sh 0)

let test_shadow_detection_query () =
  let sh = mk_shadow () in
  Shadow.set_addr_tags sh 100 [ net 1 ];
  Shadow.union_into_addr sh 100 [ tag Tag_type.Export_table 1 ];
  Shadow.set_addr_tags sh 101 [ net 1 ];
  Shadow.set_addr_tags sh 102 [ tag Tag_type.Export_table 1 ];
  Alcotest.(check int) "both types" 1
    (Shadow.bytes_with_both sh Tag_type.Network Tag_type.Export_table);
  Alcotest.(check int) "network bytes" 2
    (Shadow.bytes_with_type sh Tag_type.Network)

let test_shadow_footprint_and_reset () =
  let sh = mk_shadow () in
  Alcotest.(check int) "empty footprint" 0 (Shadow.footprint_bytes sh);
  Shadow.set_addr_tags sh 1 [ net 1; file 1 ];
  let fp = Shadow.footprint_bytes sh in
  Alcotest.(check bool) "positive footprint" true (fp > 0);
  Shadow.set_addr_tags sh 2 [ net 1 ];
  Alcotest.(check bool) "grows" true (Shadow.footprint_bytes sh > fp);
  Shadow.reset sh;
  Alcotest.(check int) "reset footprint" 0 (Shadow.footprint_bytes sh);
  Alcotest.(check int) "reset stats" 0 (Tag_stats.total (Shadow.stats sh))

let test_shadow_least_marginal_eviction () =
  let sh =
    Shadow.create ~strategy:Shadow.Least_marginal ~mem_capacity:64
      ~num_regs:4 ~m_prov:2 ()
  in
  (* net#1 becomes the most-copied tag in the system *)
  for a = 0 to 9 do
    ignore (Shadow.add_tag_addr sh a (net 1))
  done;
  ignore (Shadow.add_tag_addr sh 20 (net 1));
  ignore (Shadow.add_tag_addr sh 20 (file 1));
  (* byte 20 is full; a scarce new tag should displace net#1 (11
     copies), not file#1 (1 copy) *)
  ignore (Shadow.add_tag_addr sh 20 (tag Tag_type.Process 1));
  let tags = Shadow.tags_of_addr sh 20 in
  Alcotest.(check bool) "scarce tag admitted" true
    (List.exists (Tag.equal (tag Tag_type.Process 1)) tags);
  Alcotest.(check bool) "scarce resident kept" true
    (List.exists (Tag.equal (file 1)) tags);
  Alcotest.(check bool) "overpropagated tag evicted" false
    (List.exists (Tag.equal (net 1)) tags);
  Alcotest.(check int) "counts follow" 10
    (Tag_stats.count (Shadow.stats sh) (net 1))

let test_shadow_least_marginal_rejects_common_newcomer () =
  let sh =
    Shadow.create ~strategy:Shadow.Least_marginal ~mem_capacity:64
      ~num_regs:4 ~m_prov:1 ()
  in
  for a = 0 to 9 do
    ignore (Shadow.add_tag_addr sh a (net 1))
  done;
  ignore (Shadow.add_tag_addr sh 20 (file 1));
  (* the newcomer is the most-copied tag: it is the one rejected *)
  Alcotest.(check bool) "common newcomer rejected" true
    (Shadow.add_tag_addr sh 20 (net 1) = Provenance.Rejected);
  Alcotest.(check bool) "resident intact" true
    (List.exists (Tag.equal (file 1)) (Shadow.tags_of_addr sh 20))

let test_shadow_paged_backend_equivalent () =
  (* the two storage backends must be observationally identical *)
  let ops sh =
    ignore (Shadow.add_tag_addr sh 0 (net 1));
    ignore (Shadow.add_tag_addr sh 4095 (net 2));
    (* page-boundary crossing *)
    ignore (Shadow.add_tag_addr sh 4096 (net 3));
    Shadow.set_addr_tags sh 10_000 [ file 1; net 1 ];
    Shadow.union_into_addr sh 10_000 [ net 2 ];
    Shadow.clear_addr sh 4095;
    ignore (Shadow.remove_tag_addr sh 10_000 (file 1));
    ( Shadow.tainted_bytes sh,
      Tag_stats.snapshot (Shadow.stats sh),
      List.map Tag.to_string (Shadow.tags_of_addr sh 10_000),
      Shadow.footprint_bytes sh,
      Shadow.bytes_with_type sh Tag_type.Network )
  in
  let hashed =
    ops (Shadow.create ~backend:Shadow.Hashed ~mem_capacity:20_000 ~num_regs:4 ~m_prov:4 ())
  in
  let paged =
    ops (Shadow.create ~backend:Shadow.Paged ~mem_capacity:20_000 ~num_regs:4 ~m_prov:4 ())
  in
  let h1, h2, h3, h4, h5 = hashed and p1, p2, p3, p4, p5 = paged in
  Alcotest.(check int) "tainted bytes" h1 p1;
  Alcotest.(check (list (pair string int))) "stats"
    (List.map (fun (t, n) -> (Tag.to_string t, n)) h2)
    (List.map (fun (t, n) -> (Tag.to_string t, n)) p2);
  Alcotest.(check (list string)) "tags at byte" h3 p3;
  Alcotest.(check int) "footprint model" h4 p4;
  Alcotest.(check int) "type query" h5 p5;
  Alcotest.(check string) "backend name" "paged"
    (Shadow.backend_to_string Shadow.Paged)

let test_shadow_hashed_no_duplicate_bindings () =
  (* regression: Store.add on the Hashed backend must replace the
     binding for a live address, not stack a second one — a stacked
     stale list would resurface after clear_addr *)
  let sh =
    Shadow.create ~backend:Shadow.Hashed ~mem_capacity:1_000 ~num_regs:4
      ~m_prov:4 ()
  in
  (* taint, fully clear via remove_tag (empties the list and drops the
     store entry), then re-taint: the re-add used to Hashtbl.add a
     second binding on some code paths *)
  ignore (Shadow.add_tag_addr sh 7 (net 1));
  ignore (Shadow.remove_tag_addr sh 7 (net 1));
  ignore (Shadow.add_tag_addr sh 7 (file 1));
  ignore (Shadow.add_tag_addr sh 7 (net 2));
  Alcotest.(check (list string)) "single live list"
    [ "file#1"; "network#2" ]
    (List.sort compare (List.map Tag.to_string (Shadow.tags_of_addr sh 7)));
  Shadow.clear_addr sh 7;
  Alcotest.(check (list string)) "clear empties the byte" []
    (List.map Tag.to_string (Shadow.tags_of_addr sh 7));
  Alcotest.(check int) "no phantom tainted bytes" 0 (Shadow.tainted_bytes sh);
  (* iteration must see each address at most once *)
  ignore (Shadow.add_tag_addr sh 7 (net 3));
  let visits = ref 0 in
  Shadow.iter_tainted sh (fun addr _ -> if addr = 7 then incr visits);
  Alcotest.(check int) "one binding per address" 1 !visits

let test_shadow_paged_iteration_and_reset () =
  let sh =
    Shadow.create ~backend:Shadow.Paged ~mem_capacity:20_000 ~num_regs:4
      ~m_prov:4 ()
  in
  List.iter
    (fun a -> ignore (Shadow.add_tag_addr sh a (net 1)))
    [ 0; 4095; 4096; 8191; 19_999 ];
  let seen = ref [] in
  Shadow.iter_tainted sh (fun addr _ -> seen := addr :: !seen);
  Alcotest.(check (list int)) "iteration finds every page"
    [ 0; 4095; 4096; 8191; 19_999 ]
    (List.sort compare !seen);
  Shadow.reset sh;
  Alcotest.(check int) "reset" 0 (Shadow.tainted_bytes sh);
  Alcotest.(check int) "stats drained" 0 (Tag_stats.total (Shadow.stats sh))

let test_shadow_checkpoint_roundtrip () =
  let sh = mk_shadow () in
  Shadow.set_addr_tags sh 5 [ net 1; file 1 ];
  Shadow.set_addr_tags sh 900 [ net 2 ];
  ignore (Shadow.add_tag_reg sh 3 (file 2));
  let restored = Shadow.of_string (Shadow.to_string sh) in
  Alcotest.(check (list string)) "byte lists preserved in order"
    (List.map Tag.to_string (Shadow.tags_of_addr sh 5))
    (List.map Tag.to_string (Shadow.tags_of_addr restored 5));
  Alcotest.(check (list string)) "register lists preserved"
    (List.map Tag.to_string (Shadow.tags_of_reg sh 3))
    (List.map Tag.to_string (Shadow.tags_of_reg restored 3));
  Alcotest.(check int) "counts rebuilt exactly"
    (Tag_stats.total (Shadow.stats sh))
    (Tag_stats.total (Shadow.stats restored));
  Alcotest.(check int) "geometry preserved" (Shadow.m_prov sh)
    (Shadow.m_prov restored);
  (* stable re-serialization *)
  Alcotest.(check string) "canonical encoding" (Shadow.to_string sh)
    (Shadow.to_string restored)

let test_shadow_checkpoint_corruption () =
  let sh = mk_shadow () in
  Shadow.set_addr_tags sh 1 [ net 1 ];
  let s = Shadow.to_string sh in
  Alcotest.(check bool) "bad magic rejected" true
    (try ignore (Shadow.of_string ("XXXX" ^ s)); false
     with Mitos_util.Codec.Malformed _ -> true);
  Alcotest.(check bool) "truncation rejected" true
    (try ignore (Shadow.of_string (String.sub s 0 (String.length s - 2)));
       false
     with Mitos_util.Codec.Malformed _ -> true)

let qcheck_shadow_checkpoint_preserves_state =
  QCheck.Test.make ~name:"checkpoint roundtrip under random ops" ~count:60
    QCheck.(small_list (triple (int_range 0 2) (int_range 0 31) (int_range 1 5)))
    (fun ops ->
      let sh = Shadow.create ~mem_capacity:32 ~num_regs:4 ~m_prov:3 () in
      List.iter
        (fun (op, addr, id) ->
          match op with
          | 0 -> ignore (Shadow.add_tag_addr sh addr (net id))
          | 1 -> Shadow.union_into_addr sh addr [ file id ]
          | _ -> Shadow.clear_addr sh addr)
        ops;
      let restored = Shadow.of_string (Shadow.to_string sh) in
      Shadow.to_string restored = Shadow.to_string sh
      && Tag_stats.snapshot (Shadow.stats restored)
         = Tag_stats.snapshot (Shadow.stats sh))

let test_shadow_bounds () =
  let sh = mk_shadow () in
  Alcotest.(check bool) "oob raises" true
    (try ignore (Shadow.add_tag_addr sh 5000 (net 1)); false
     with Invalid_argument _ -> true)

(* the load-bearing invariant: Tag_stats counts are exactly the number
   of list memberships, under arbitrary interleavings of operations *)
let qcheck_shadow_counts_exact =
  QCheck.Test.make ~name:"shadow counts exactly match memberships" ~count:100
    QCheck.(small_list (triple (int_range 0 3) (int_range 0 31) (int_range 1 4)))
    (fun ops ->
      let sh = Shadow.create ~mem_capacity:32 ~num_regs:4 ~m_prov:2 () in
      List.iter
        (fun (op, addr, id) ->
          let t = net id in
          match op with
          | 0 -> ignore (Shadow.add_tag_addr sh addr t)
          | 1 -> Shadow.set_addr_tags sh addr [ t; file id ]
          | 2 -> Shadow.union_into_addr sh addr [ t ]
          | _ -> Shadow.clear_addr sh addr)
        ops;
      (* recount from the ground truth *)
      let recount = Tag_stats.create () in
      Shadow.iter_tainted sh (fun _addr tags ->
          List.iter (Tag_stats.incr recount) tags);
      let stats = Shadow.stats sh in
      Tag_stats.total stats = Tag_stats.total recount
      && Tag_stats.fold stats ~init:true ~f:(fun acc t n ->
             acc && Tag_stats.count recount t = n))

(* [set_*_tags] skips a rewrite to the resident list and assigns a
   duplicate-free list that fits. Under every strategy it must be
   indistinguishable from clearing and re-adding tag by tag: the same
   lists in the same order, the same Tag_stats, the same evictions. *)
let qcheck_shadow_set_matches_clear_then_add =
  let strategies =
    [| Shadow.Structural Provenance.Fifo; Shadow.Structural Provenance.Lru;
       Shadow.Structural Provenance.Reject; Shadow.Least_marginal |]
  in
  let gen_tag = QCheck.Gen.(map2 (fun f id -> if f then file id else net id) bool (int_range 1 4)) in
  let gen_op =
    QCheck.Gen.(
      triple (int_range 0 3) (int_range 0 5) (list_size (int_range 0 6) gen_tag))
  in
  QCheck.Test.make ~name:"set_*_tags equals clear-then-add" ~count:300
    QCheck.(make Gen.(pair (int_range 0 3) (list_size (int_range 0 40) gen_op)))
    (fun (strategy, ops) ->
      let make () =
        let sh =
          Shadow.create ~strategy:strategies.(strategy) ~mem_capacity:8
            ~num_regs:3 ~m_prov:3 ()
        in
        let evictions = ref [] in
        Shadow.on_evict sh (Some (fun e -> evictions := e :: !evictions));
        (sh, evictions)
      in
      let fast, fast_evictions = make () and slow, slow_evictions = make () in
      List.iter
        (fun (kind, loc, tags) ->
          (* locations 0-2 are registers, 3-5 memory *)
          let reg = loc < 3 and addr = loc - 3 in
          match kind with
          | 0 | 1 ->
            if reg then Shadow.set_reg_tags fast loc tags
            else Shadow.set_addr_tags fast addr tags;
            if reg then Shadow.clear_reg slow loc else Shadow.clear_addr slow addr;
            List.iter
              (fun tag ->
                ignore
                  (if reg then Shadow.add_tag_reg slow loc tag
                   else Shadow.add_tag_addr slow addr tag))
              tags;
            if kind = 1 then begin
              (* rewriting the resident list, as the engine does for a
                 union that adds nothing *)
              let resident =
                if reg then Shadow.tags_of_reg fast loc else Shadow.tags_of_addr fast addr
              in
              if reg then Shadow.set_reg_tags fast loc resident
              else Shadow.set_addr_tags fast addr resident
            end
          | 2 ->
            List.iter
              (fun sh ->
                if reg then Shadow.union_into_reg sh loc tags
                else Shadow.union_into_addr sh addr tags)
              [ fast; slow ]
          | _ ->
            List.iter
              (fun sh -> if reg then Shadow.clear_reg sh loc else Shadow.clear_addr sh addr)
              [ fast; slow ])
        ops;
      let lists sh =
        List.init 3 (Shadow.tags_of_reg sh) @ List.init 8 (Shadow.tags_of_addr sh)
      in
      let stats sh =
        let s = Shadow.stats sh in
        ( Tag_stats.snapshot s,
          Tag_stats.total s,
          Tag_stats.distinct s,
          List.map (fun ty -> (Tag_stats.per_type s ty, Tag_stats.distinct_of_type s ty))
            Tag_type.all )
      in
      lists fast = lists slow
      && stats fast = stats slow
      && !fast_evictions = !slow_evictions)

(* -- sharded shadow store ------------------------------------------------ *)

let test_shadow_shard_accessors () =
  let sh = mk_shadow () in
  Alcotest.(check int) "default unsharded" 1 (Shadow.shards sh);
  let sh4 =
    Shadow.create ~shards:4 ~mem_capacity:1024 ~num_regs:8 ~m_prov:4 ()
  in
  Alcotest.(check int) "four shards" 4 (Shadow.shards sh4);
  Alcotest.(check int) "occupancy arity" 4
    (Array.length (Shadow.shard_occupancy sh4));
  List.iter
    (fun a -> ignore (Shadow.add_tag_addr sh4 a (net (a + 1))))
    [ 0; 17; 123; 512; 900 ];
  Alcotest.(check int) "occupancy sums to tainted bytes"
    (Shadow.tainted_bytes sh4)
    (Array.fold_left ( + ) 0 (Shadow.shard_occupancy sh4));
  Shadow.reset sh4;
  Alcotest.(check (list int)) "reset zeroes every shard" [ 0; 0; 0; 0 ]
    (Array.to_list (Shadow.shard_occupancy sh4));
  Alcotest.(check bool) "zero shards rejected" true
    (try
       ignore (Shadow.create ~shards:0 ~mem_capacity:64 ~num_regs:4 ~m_prov:2 ());
       false
     with Invalid_argument _ -> true);
  (* the paged backend has no sub-tables: one pseudo-shard *)
  let sp =
    Shadow.create ~backend:Shadow.Paged ~mem_capacity:1024 ~num_regs:4
      ~m_prov:2 ()
  in
  Alcotest.(check int) "paged is one shard" 1
    (Array.length (Shadow.shard_occupancy sp))

let test_shadow_default_shards () =
  Alcotest.(check int) "initial default" 1 (Shadow.default_shards ());
  Shadow.set_default_shards 3;
  Fun.protect
    ~finally:(fun () -> Shadow.set_default_shards 1)
    (fun () ->
      Alcotest.(check int) "create inherits the process default" 3
        (Shadow.shards (mk_shadow ()));
      Alcotest.(check int) "explicit ~shards wins" 2
        (Shadow.shards
           (Shadow.create ~shards:2 ~mem_capacity:64 ~num_regs:4 ~m_prov:2 ())));
  Alcotest.(check bool) "invalid default rejected" true
    (try
       Shadow.set_default_shards 0;
       false
     with Invalid_argument _ -> true)

(* the tentpole equivalence: for any op sequence, a sharded store is
   observationally identical to the unsharded hashed store and to the
   paged backend — including the canonical checkpoint encoding, which
   sorts by address and so never sees the shard layout *)
let qcheck_shadow_sharded_equivalent =
  QCheck.Test.make
    ~name:"sharded store equals unsharded and paged observationally"
    ~count:100
    QCheck.(
      pair (int_range 2 6)
        (small_list (triple (int_range 0 3) (int_range 0 31) (int_range 1 4))))
    (fun (shards, ops) ->
      (* QCheck's int shrinker can step below the generator range;
         clamp so a genuine counterexample shrinks instead of dying
         on Shadow.create's shards validation *)
      let shards = max 1 shards in
      let observe sh =
        List.iter
          (fun (op, addr, id) ->
            let t = net id in
            match op with
            | 0 -> ignore (Shadow.add_tag_addr sh addr t)
            | 1 -> Shadow.set_addr_tags sh addr [ t; file id ]
            | 2 -> Shadow.union_into_addr sh addr [ t ]
            | _ -> Shadow.clear_addr sh addr)
          ops;
        ( Shadow.tainted_bytes sh,
          Tag_stats.snapshot (Shadow.stats sh),
          List.init 32 (fun a ->
              List.map Tag.to_string (Shadow.tags_of_addr sh a)),
          Shadow.bytes_with_type sh Tag_type.Network,
          Shadow.to_string sh )
      in
      let mk ?backend ?shards () =
        Shadow.create ?backend ?shards ~mem_capacity:32 ~num_regs:4 ~m_prov:2
          ()
      in
      let sharded = observe (mk ~shards ()) in
      let unsharded = observe (mk ()) in
      let paged = observe (mk ~backend:Shadow.Paged ()) in
      (* the checkpoint encoding embeds the backend kind, so it is
         only byte-comparable within the Hashed backend; the Paged
         twin is compared on the other observations *)
      let sans_checkpoint (t, s, l, b, _) = (t, s, l, b) in
      sharded = unsharded && sans_checkpoint sharded = sans_checkpoint paged)

let test_shadow_sharded_checkpoint_roundtrip () =
  let sh =
    Shadow.create ~shards:4 ~mem_capacity:1024 ~num_regs:8 ~m_prov:4 ()
  in
  Shadow.set_addr_tags sh 5 [ net 1; file 1 ];
  Shadow.set_addr_tags sh 900 [ net 2 ];
  ignore (Shadow.add_tag_reg sh 3 (file 2));
  let restored = Shadow.of_string (Shadow.to_string sh) in
  (* shard layout is a runtime concern, not serialized state: the
     restore uses the process default *)
  Alcotest.(check int) "restored with the process default" 1
    (Shadow.shards restored);
  Alcotest.(check string) "canonical encoding is shard-independent"
    (Shadow.to_string sh) (Shadow.to_string restored);
  Alcotest.(check int) "counts preserved"
    (Tag_stats.total (Shadow.stats sh))
    (Tag_stats.total (Shadow.stats restored))

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "mitos_tag"
    [
      ( "tag_type",
        [
          Alcotest.test_case "int roundtrip" `Quick test_type_int_roundtrip;
          Alcotest.test_case "string roundtrip" `Quick test_type_string_roundtrip;
          Alcotest.test_case "dense indices" `Quick test_type_indices_dense_and_distinct;
        ] );
      ( "tag",
        [
          Alcotest.test_case "equality" `Quick test_tag_equality;
          Alcotest.test_case "registry" `Quick test_tag_registry;
          Alcotest.test_case "codec" `Quick test_tag_codec;
          Alcotest.test_case "to_string" `Quick test_tag_to_string;
        ] );
      ( "provenance",
        [
          Alcotest.test_case "add/order" `Quick test_prov_add_and_order;
          Alcotest.test_case "Eq.(7) no duplicates" `Quick test_prov_no_duplicates;
          Alcotest.test_case "fifo eviction" `Quick test_prov_fifo_eviction;
          Alcotest.test_case "lru eviction" `Quick test_prov_lru_eviction;
          Alcotest.test_case "reject" `Quick test_prov_reject;
          Alcotest.test_case "remove/clear" `Quick test_prov_remove_clear;
          Alcotest.test_case "capacity validation" `Quick test_prov_capacity_validation;
          q qcheck_prov_invariants;
        ] );
      ( "tag_stats",
        [
          Alcotest.test_case "incr/decr" `Quick test_stats_incr_decr;
          Alcotest.test_case "underflow" `Quick test_stats_decr_underflow;
          Alcotest.test_case "weighted total" `Quick test_stats_weighted_total;
          Alcotest.test_case "snapshot/arrays" `Quick test_stats_snapshot_and_arrays;
          Alcotest.test_case "copy" `Quick test_stats_copy_independent;
        ] );
      ( "shadow",
        [
          Alcotest.test_case "taint/query" `Quick test_shadow_taint_and_query;
          Alcotest.test_case "replace semantics" `Quick test_shadow_set_replace_semantics;
          Alcotest.test_case "union semantics" `Quick test_shadow_union_semantics;
          Alcotest.test_case "space left" `Quick test_shadow_space_left;
          Alcotest.test_case "detection query" `Quick test_shadow_detection_query;
          Alcotest.test_case "footprint/reset" `Quick test_shadow_footprint_and_reset;
          Alcotest.test_case "least-marginal eviction" `Quick
            test_shadow_least_marginal_eviction;
          Alcotest.test_case "least-marginal rejects common" `Quick
            test_shadow_least_marginal_rejects_common_newcomer;
          Alcotest.test_case "hashed backend: no duplicate bindings" `Quick
            test_shadow_hashed_no_duplicate_bindings;
          Alcotest.test_case "paged backend equivalent" `Quick
            test_shadow_paged_backend_equivalent;
          Alcotest.test_case "paged iteration/reset" `Quick
            test_shadow_paged_iteration_and_reset;
          Alcotest.test_case "checkpoint roundtrip" `Quick
            test_shadow_checkpoint_roundtrip;
          Alcotest.test_case "checkpoint corruption" `Quick
            test_shadow_checkpoint_corruption;
          q qcheck_shadow_checkpoint_preserves_state;
          Alcotest.test_case "bounds" `Quick test_shadow_bounds;
          q qcheck_shadow_counts_exact;
          q qcheck_shadow_set_matches_clear_then_add;
          Alcotest.test_case "shard accessors" `Quick
            test_shadow_shard_accessors;
          Alcotest.test_case "default shards" `Quick
            test_shadow_default_shards;
          q qcheck_shadow_sharded_equivalent;
          Alcotest.test_case "sharded checkpoint roundtrip" `Quick
            test_shadow_sharded_checkpoint_roundtrip;
        ] );
    ]
