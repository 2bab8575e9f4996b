type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

type state = { src : string; mutable pos : int }

let fail st msg =
  raise (Parse_error (Printf.sprintf "%s at offset %d" msg st.pos))

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance st;
    skip_ws st
  | _ -> ()

let expect st c =
  match peek st with
  | Some d when d = c -> advance st
  | _ -> fail st (Printf.sprintf "expected %C" c)

let literal st word value =
  let n = String.length word in
  if
    st.pos + n <= String.length st.src
    && String.sub st.src st.pos n = word
  then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st (Printf.sprintf "expected %s" word)

let parse_string_body st =
  (* opening quote already consumed *)
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> fail st "unterminated string"
    | Some '"' -> advance st
    | Some '\\' -> (
      advance st;
      match peek st with
      | None -> fail st "unterminated escape"
      | Some c ->
        advance st;
        (match c with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' ->
          if st.pos + 4 > String.length st.src then
            fail st "truncated \\u escape";
          let hex = String.sub st.src st.pos 4 in
          let code =
            match int_of_string_opt ("0x" ^ hex) with
            | Some c -> c
            | None -> fail st "bad \\u escape"
          in
          st.pos <- st.pos + 4;
          (* encode the BMP code point as UTF-8 (surrogates land
             verbatim — our writers never emit them) *)
          if code < 0x80 then Buffer.add_char buf (Char.chr code)
          else if code < 0x800 then begin
            Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
            Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
          end
          else begin
            Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
            Buffer.add_char buf
              (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
            Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
          end
        | _ -> fail st "bad escape");
        go ())
    | Some c ->
      advance st;
      Buffer.add_char buf c;
      go ()
  in
  go ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while
    match peek st with Some c when is_num_char c -> true | _ -> false
  do
    advance st
  done;
  let text = String.sub st.src start (st.pos - start) in
  match float_of_string_opt text with
  | Some v -> Num v
  | None -> fail st (Printf.sprintf "bad number %S" text)

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some '{' ->
    advance st;
    skip_ws st;
    if peek st = Some '}' then begin
      advance st;
      Obj []
    end
    else begin
      let rec fields acc =
        skip_ws st;
        expect st '"';
        let key = parse_string_body st in
        skip_ws st;
        expect st ':';
        let value = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          fields ((key, value) :: acc)
        | Some '}' ->
          advance st;
          List.rev ((key, value) :: acc)
        | _ -> fail st "expected ',' or '}'"
      in
      Obj (fields [])
    end
  | Some '[' ->
    advance st;
    skip_ws st;
    if peek st = Some ']' then begin
      advance st;
      List []
    end
    else begin
      let rec elements acc =
        let value = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          elements (value :: acc)
        | Some ']' ->
          advance st;
          List.rev (value :: acc)
        | _ -> fail st "expected ',' or ']'"
      in
      List (elements [])
    end
  | Some '"' ->
    advance st;
    Str (parse_string_body st)
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  (* the non-finite spellings render_number writes, so a document with
     a NaN metric reads back instead of failing to parse *)
  | Some 'N' -> literal st "NaN" (Num Float.nan)
  | Some '+' -> literal st "+Inf" (Num infinity)
  | Some '-'
    when st.pos + 1 < String.length st.src && st.src.[st.pos + 1] = 'I' ->
    literal st "-Inf" (Num neg_infinity)
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> fail st (Printf.sprintf "unexpected %C" c)

let parse src =
  let st = { src; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  if st.pos <> String.length src then fail st "trailing garbage";
  v

let parse_result src =
  match parse src with
  | v -> Ok v
  | exception Parse_error msg -> Error msg

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let path keys j =
  List.fold_left
    (fun acc key -> Option.bind acc (member key))
    (Some j) keys

let to_float = function Num v -> Some v | _ -> None
let to_string_opt = function Str s -> Some s | _ -> None

(* -- rendering ---------------------------------------------------------- *)

(* Matches Registry.fmt_value so numbers survive a render -> parse ->
   render round-trip byte-identically across every writer in the
   repo. *)
let render_number v =
  if Float.is_nan v then "NaN"
  else if v = infinity then "+Inf"
  else if v = neg_infinity then "-Inf"
  else if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

let render_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let rec render ?(indent = 0) v =
  let pad n = String.make n ' ' in
  match v with
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Num f -> render_number f
  | Str s -> render_string s
  | List items ->
    if items = [] then "[]"
    else
      "[\n"
      ^ String.concat ",\n"
          (List.map
             (fun item -> pad (indent + 2) ^ render ~indent:(indent + 2) item)
             items)
      ^ "\n" ^ pad indent ^ "]"
  | Obj fields ->
    if fields = [] then "{}"
    else
      "{\n"
      ^ String.concat ",\n"
          (List.map
             (fun (k, item) ->
               pad (indent + 2) ^ render_string k ^ ": "
               ^ render ~indent:(indent + 2) item)
             fields)
      ^ "\n" ^ pad indent ^ "}"
