exception Malformed of string

(* A varint into [buf] at [pos], which has room for it; returns the
   position after it. Top level, so a write allocates no closure. *)
let rec put_varint buf pos n =
  if n < 0x80 then begin
    Bytes.unsafe_set buf pos (Char.unsafe_chr n);
    pos + 1
  end
  else begin
    Bytes.unsafe_set buf pos (Char.unsafe_chr (0x80 lor (n land 0x7F)));
    put_varint buf (pos + 1) (n lsr 7)
  end

let rec varint_size n = if n < 0x80 then 1 else 1 + varint_size (n lsr 7)

(* A non-negative int takes at most 9 varint bytes. *)
let max_varint = 9

let length_prefixed s =
  let len = String.length s in
  let buf = Bytes.create (varint_size len + len) in
  let pos = put_varint buf 0 len in
  Bytes.blit_string s 0 buf pos len;
  Bytes.unsafe_to_string buf

module Enc = struct
  (* Growable bytes: [buf] holds [len] written bytes. *)
  type t = { mutable buf : Bytes.t; mutable len : int }

  let create ?(initial_size = 256) () =
    { buf = Bytes.create (max 1 initial_size); len = 0 }

  let grow t n =
    let need = t.len + n in
    let buf = Bytes.create (max need (2 * Bytes.length t.buf)) in
    Bytes.blit t.buf 0 buf 0 t.len;
    t.buf <- buf

  (* Room for [n] more bytes; the common case is one compare. *)
  let[@inline] reserve t n = if t.len + n > Bytes.length t.buf then grow t n

  let uint t n =
    if n < 0 then invalid_arg "Codec.Enc.uint: negative";
    reserve t max_varint;
    t.len <- put_varint t.buf t.len n

  let int t n =
    (* zigzag: maps small-magnitude signed ints to small unsigned ints *)
    let z = (n lsl 1) lxor (n asr (Sys.int_size - 1)) in
    uint t (z land max_int)

  let bool t b =
    reserve t 1;
    Bytes.unsafe_set t.buf t.len (if b then '\001' else '\000');
    t.len <- t.len + 1

  let float t f =
    reserve t 8;
    Bytes.set_int64_le t.buf t.len (Int64.bits_of_float f);
    t.len <- t.len + 8

  let string t s =
    let n = String.length s in
    uint t n;
    reserve t n;
    Bytes.blit_string s 0 t.buf t.len n;
    t.len <- t.len + n

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

  let contents t = Bytes.sub_string t.buf 0 t.len
  let length t = t.len
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

  (* Cut short, it fails at the end of the input, where a byte-wise
     read would have. *)
  let float t =
    let pos = t.pos in
    if String.length t.data - pos < 8 then begin
      t.pos <- String.length t.data;
      raise (Malformed "unexpected end of input")
    end;
    t.pos <- pos + 8;
    Int64.float_of_bits (String.get_int64_le t.data pos)

  (* The length is compared with the bytes left, not added to [pos]:
     a hostile length near [max_int] cannot overflow past the check.
     A nine-byte varint can also set the sign bit. *)
  let string t =
    let n = uint t in
    if n < 0 || n > String.length t.data - t.pos then
      raise (Malformed "string overruns input");
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

  (* Every element takes at least a byte, so a count past the bytes left
     is refused before [Array.init] allocates for it. [list] needs no
     such check: it allocates only per element actually read. *)
  let array t f =
    let n = uint t in
    if n < 0 then raise (Malformed "negative array length");
    if n > String.length t.data - t.pos then
      raise (Malformed "array overruns input");
    Array.init n (fun _ -> f t)

  let pos t = t.pos
  let at_end t = t.pos >= String.length t.data

  let expect_end t =
    if not (at_end t) then
      raise (Malformed (Printf.sprintf "%d trailing bytes" (String.length t.data - t.pos)))
end
