type t = unit -> int

let real () =
  let t0 = Mitos_util.Clock.now_ns () in
  fun () -> (Mitos_util.Clock.now_ns () - t0) / 1000

let logical ?(start = 0) () =
  let next = ref start in
  fun () ->
    let v = !next in
    incr next;
    v

let of_fun f = f
let now t = t ()
