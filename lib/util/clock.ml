external now_ns : unit -> int = "mitos_clock_now_ns" [@@noalloc]
