(* Ring storage: [times]/[values] hold [len] samples starting at
   logical index 0 = physical [start], wrapping modulo the physical
   size. The physical arrays grow geometrically up to [capacity];
   beyond that the oldest sample is overwritten. Age eviction drops
   samples older than [newest - max_age] from the front, but never the
   newest sample itself. *)
type t = {
  series_name : string;
  capacity : int;
  max_age : float;
  mutable times : float array;
  mutable values : float array;
  mutable start : int;  (* physical index of logical sample 0 *)
  mutable len : int;
  mutable dropped : int;
}

let default_capacity = 65536

let create ?(name = "") ?(capacity = default_capacity) ?(max_age = infinity) () =
  if capacity < 1 then invalid_arg "Timeseries.create: non-positive capacity";
  if not (max_age > 0.0) then
    invalid_arg "Timeseries.create: non-positive max_age";
  let phys = min 16 capacity in
  {
    series_name = name;
    capacity;
    max_age;
    times = Array.make phys 0.0;
    values = Array.make phys 0.0;
    start = 0;
    len = 0;
    dropped = 0;
  }

let name t = t.series_name
let capacity t = t.capacity
let max_age t = t.max_age
let dropped t = t.dropped

let phys_index t i = (t.start + i) mod Array.length t.times
let get_time t i = t.times.(phys_index t i)
let get_value t i = t.values.(phys_index t i)
let get t i = (get_time t i, get_value t i)

let ensure_capacity t =
  if t.len = Array.length t.times && t.len < t.capacity then begin
    let cap = min (2 * Array.length t.times) t.capacity in
    let grow a =
      let b = Array.make cap 0.0 in
      for i = 0 to t.len - 1 do
        b.(i) <- a.((t.start + i) mod Array.length a)
      done;
      b
    in
    let ts = grow t.times and vs = grow t.values in
    t.times <- ts;
    t.values <- vs;
    t.start <- 0
  end

let drop_oldest t =
  t.start <- (t.start + 1) mod Array.length t.times;
  t.len <- t.len - 1;
  t.dropped <- t.dropped + 1

let add t time value =
  ensure_capacity t;
  if t.len = t.capacity then drop_oldest t;
  let i = phys_index t t.len in
  t.times.(i) <- time;
  t.values.(i) <- value;
  t.len <- t.len + 1;
  if t.max_age < infinity then begin
    let cutoff = time -. t.max_age in
    while t.len > 1 && get_time t 0 < cutoff do
      drop_oldest t
    done
  end

let length t = t.len
let times t = Array.init t.len (fun i -> get_time t i)
let values t = Array.init t.len (fun i -> get_value t i)

let last t = if t.len = 0 then None else Some (get t (t.len - 1))

let iter t f =
  for i = 0 to t.len - 1 do
    f (get_time t i) (get_value t i)
  done

(* Smallest logical index whose time is >= [time]; [len] if none.
   Binary search over the (non-decreasing) retained times. *)
let first_at_or_after t time =
  if t.len = 0 || get_time t (t.len - 1) < time then t.len
  else begin
    let lo = ref 0 and hi = ref (t.len - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if get_time t mid >= time then hi := mid else lo := mid + 1
    done;
    !lo
  end

let downsample t k =
  if k <= 0 then [||]
  else if t.len <= k then Array.init t.len (fun i -> get t i)
  else begin
    let out = Array.make k (0.0, 0.0) in
    for b = 0 to k - 1 do
      let lo = b * t.len / k in
      let hi = ((b + 1) * t.len / k) - 1 in
      let hi = max lo hi in
      let acc = ref 0.0 in
      for i = lo to hi do
        acc := !acc +. get_value t i
      done;
      out.(b) <- (get_time t hi, !acc /. float_of_int (hi - lo + 1))
    done;
    out
  end

let spark_chars = [| " "; "\xe2\x96\x81"; "\xe2\x96\x82"; "\xe2\x96\x83";
                     "\xe2\x96\x84"; "\xe2\x96\x85"; "\xe2\x96\x86";
                     "\xe2\x96\x87"; "\xe2\x96\x88" |]

let sparkline t width =
  let samples = downsample t width in
  if Array.length samples = 0 then ""
  else begin
    let vals = Array.map snd samples in
    let lo = Array.fold_left Float.min vals.(0) vals in
    let hi = Array.fold_left Float.max vals.(0) vals in
    let span = hi -. lo in
    let buf = Buffer.create (Array.length vals * 3) in
    Array.iter
      (fun v ->
        let idx =
          if span <= 0.0 then 4
          else
            int_of_float ((v -. lo) /. span *. 8.0)
        in
        let idx = max 0 (min 8 idx) in
        Buffer.add_string buf spark_chars.(idx))
      vals;
    Buffer.contents buf
  end
