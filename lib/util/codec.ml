exception Malformed of string

module Enc = struct
  type t = Buffer.t

  let create ?(initial_size = 256) () = Buffer.create initial_size

  let uint t n =
    if n < 0 then invalid_arg "Codec.Enc.uint: negative";
    let rec go n =
      if n < 0x80 then Buffer.add_char t (Char.chr n)
      else begin
        Buffer.add_char t (Char.chr (0x80 lor (n land 0x7F)));
        go (n lsr 7)
      end
    in
    go n

  let int t n =
    (* zigzag: maps small-magnitude signed ints to small unsigned ints *)
    let z = (n lsl 1) lxor (n asr (Sys.int_size - 1)) in
    uint t (z land max_int)

  let bool t b = Buffer.add_char t (if b then '\001' else '\000')

  let float t f =
    let bits = Int64.bits_of_float f in
    for i = 0 to 7 do
      Buffer.add_char t
        (Char.chr (Int64.to_int (Int64.shift_right_logical bits (8 * i)) land 0xFF))
    done

  let string t s =
    uint t (String.length s);
    Buffer.add_string t s

  let option t f = function
    | None -> bool t false
    | Some v ->
      bool t true;
      f v

  let list t f l =
    uint t (List.length l);
    List.iter f l

  let array t f a =
    uint t (Array.length a);
    Array.iter f a

  let contents = Buffer.contents
  let length = Buffer.length
end

module Dec = struct
  type t = { data : string; mutable pos : int }

  let of_string data = { data; pos = 0 }

  let byte t =
    if t.pos >= String.length t.data then raise (Malformed "unexpected end of input");
    let c = Char.code t.data.[t.pos] in
    t.pos <- t.pos + 1;
    c

  let rec uint_from t shift acc =
    if shift > Sys.int_size then raise (Malformed "varint too long");
    let b = byte t in
    let acc = acc lor ((b land 0x7F) lsl shift) in
    if b land 0x80 = 0 then acc else uint_from t (shift + 7) acc

  (* Most varints in a trace are one byte: read those inline, and hand
     anything else (longer, or at end of input) to the top-level loop,
     which starts over at the same byte. Neither path allocates. *)
  let uint t =
    let pos = t.pos in
    if pos < String.length t.data then begin
      let b = Char.code (String.unsafe_get t.data pos) in
      if b < 0x80 then begin
        t.pos <- pos + 1;
        b
      end
      else uint_from t 0 0
    end
    else uint_from t 0 0

  let int t =
    let z = uint t in
    (z lsr 1) lxor (-(z land 1))

  let bool t =
    match byte t with
    | 0 -> false
    | 1 -> true
    | b -> raise (Malformed (Printf.sprintf "invalid bool byte %d" b))

  let float t =
    let bits = ref 0L in
    for i = 0 to 7 do
      bits := Int64.logor !bits (Int64.shift_left (Int64.of_int (byte t)) (8 * i))
    done;
    Int64.float_of_bits !bits

  let string t =
    let n = uint t in
    if t.pos + n > String.length t.data then raise (Malformed "string overruns input");
    let s = String.sub t.data t.pos n in
    t.pos <- t.pos + n;
    s

  let option t f = if bool t then Some (f t) else None

  (* reversed, then put in order: no closure, and a constant stack depth
     whatever length the input claims *)
  let rec list_rev t f acc n =
    if n = 0 then List.rev acc else list_rev t f (f t :: acc) (n - 1)

  let list t f =
    let n = uint t in
    if n < 0 then raise (Malformed "negative list length");
    list_rev t f [] n

  let array t f =
    let n = uint t in
    if n < 0 then raise (Malformed "negative array length");
    Array.init n (fun _ -> f t)

  let pos t = t.pos
  let at_end t = t.pos >= String.length t.data

  let expect_end t =
    if not (at_end t) then
      raise (Malformed (Printf.sprintf "%d trailing bytes" (String.length t.data - t.pos)))
end
