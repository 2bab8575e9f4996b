let domain_label () =
  [ ("domain", string_of_int (Domain.self () :> int)) ]

(* [Gc.quick_stat] sums every domain's counts, so a sampler domain sees
   the executor workers' allocation. On OCaml 5 its word counts advance
   at each minor collection, which stops every domain; [Gc.minor_words]
   would be exact but counts only the sampler's own allocation. *)
let sample_gc reg =
  let s = Gc.quick_stat () in
  let labels = domain_label () in
  let g name help v =
    Registry.set_gauge (Registry.gauge reg ~help ~labels name) v
  in
  g "mitos_gc_minor_collections" "Minor GC collections" (float_of_int s.minor_collections);
  g "mitos_gc_major_collections" "Major GC collections" (float_of_int s.major_collections);
  g "mitos_gc_minor_words" "Words allocated in the minor heap" s.minor_words;
  g "mitos_gc_promoted_words" "Words promoted minor to major" s.promoted_words;
  g "mitos_gc_major_words" "Words allocated in the major heap" s.major_words;
  g "mitos_gc_heap_words" "Major heap size in words" (float_of_int s.heap_words);
  g "mitos_gc_top_heap_words" "Peak major heap size in words" (float_of_int s.top_heap_words)

let export_locks reg =
  List.iter
    (fun (name, (s : Contended.stats)) ->
      let labels = [ ("lock", name) ] in
      let g metric help v =
        Registry.set_gauge (Registry.gauge reg ~help ~labels metric) (float_of_int v)
      in
      g "mitos_lock_acquisitions_total" "Lock acquisitions" s.acquisitions;
      g "mitos_lock_contended_total" "Acquisitions that found the lock held" s.contended;
      g "mitos_lock_wait_ns_total" "Total ns spent waiting for the lock" s.wait_ns_total;
      g "mitos_lock_wait_ns_max" "Longest single wait in ns" s.wait_ns_max;
      g "mitos_lock_hold_ns_total" "Total ns the lock was held" s.hold_ns_total;
      g "mitos_lock_hold_ns_max" "Longest single hold in ns" s.hold_ns_max)
    (Contended.aggregate ())

let sample reg =
  sample_gc reg;
  export_locks reg

(* SLO-rule signals: one contention-share signal per lock name.
   Signal names must be stable identifiers, so lock names are
   sanitized to [a-z0-9_]. *)
let sanitize name =
  String.map
    (function ('a' .. 'z' | '0' .. '9' | '_') as c -> c | _ -> '_')
    (String.lowercase_ascii name)

let signals () =
  List.map
    (fun (name, (s : Contended.stats)) ->
      let share =
        if s.acquisitions = 0 then 0.0
        else float_of_int s.contended /. float_of_int s.acquisitions
      in
      ("lock_" ^ sanitize name ^ "_contention", share))
    (Contended.aggregate ())

type sampler = { stop_flag : bool Atomic.t; domain : unit Domain.t }

let start ?(period = 0.1) reg =
  let stop_flag = Atomic.make false in
  let domain =
    Domain.spawn (fun () ->
        while not (Atomic.get stop_flag) do
          sample reg;
          Unix.sleepf period
        done)
  in
  { stop_flag; domain }

let stop s =
  Atomic.set s.stop_flag true;
  Domain.join s.domain
