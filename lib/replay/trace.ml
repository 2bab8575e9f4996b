module Machine = Mitos_isa.Machine
module Program = Mitos_isa.Program
module Codec = Mitos_util.Codec

type t = {
  program : Program.t;
  mem_size : int;
  records : Machine.exec_record array;
  meta : (string * string) list;
}

let make ?(meta = []) ~program ~mem_size records =
  { program; mem_size; records; meta }

let program t = t.program
let mem_size t = t.mem_size
let records t = t.records
let length t = Array.length t.records
let meta t = t.meta
let find_meta t key = List.assoc_opt key t.meta

let add_meta t key value =
  { t with meta = (key, value) :: List.remove_assoc key t.meta }
let iter t f = Array.iter f t.records

let magic = "MITRACE1"

let to_string t =
  let enc = Codec.Enc.create ~initial_size:(4096 + (Array.length t.records * 16)) () in
  Codec.Enc.string enc magic;
  Program.encode enc t.program;
  Codec.Enc.uint enc t.mem_size;
  Codec.Enc.list enc
    (fun (k, v) ->
      Codec.Enc.string enc k;
      Codec.Enc.string enc v)
    t.meta;
  Codec.Enc.array enc (Machine.record_encoder t.program enc) t.records;
  Codec.Enc.contents enc

let of_string s =
  let dec = Codec.Dec.of_string s in
  let m = Codec.Dec.string dec in
  if m <> magic then raise (Codec.Malformed "bad trace magic");
  let program = Program.decode dec in
  let mem_size = Codec.Dec.uint dec in
  let meta =
    Codec.Dec.list dec (fun dec ->
        let k = Codec.Dec.string dec in
        let v = Codec.Dec.string dec in
        (k, v))
  in
  let records = Codec.Dec.array dec (Machine.record_decoder program) in
  Codec.Dec.expect_end dec;
  { program; mem_size; records; meta }

let save t path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string t))

let load path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let n = in_channel_length ic in
      of_string (really_input_string ic n))
