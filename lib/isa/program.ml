type t = { code : Instr.t array; labels : (string * int) list }

let validate code =
  let n = Array.length code in
  let check_target i target =
    if target < 0 || target >= n then
      invalid_arg
        (Printf.sprintf "Program: instruction %d targets out-of-range %d" i
           target)
  in
  Array.iteri
    (fun i instr ->
      match instr with
      | Instr.Branch (_, _, _, target) | Instr.Jmp target ->
        check_target i target
      | _ -> ())
    code

let make ?(labels = []) code =
  validate code;
  { code; labels }

let code t = t.code
let length t = Array.length t.code

let instr t i =
  if i < 0 || i >= Array.length t.code then
    invalid_arg (Printf.sprintf "Program.instr: index %d" i);
  t.code.(i)

let label_addr t name = List.assoc name t.labels
let labels t = t.labels

let pp ppf t =
  let by_addr = List.map (fun (name, addr) -> (addr, name)) t.labels in
  Array.iteri
    (fun i instr ->
      List.iter
        (fun (addr, name) -> if addr = i then Format.fprintf ppf "%s:@." name)
        by_addr;
      Format.fprintf ppf "  %4d  %a@." i Instr.pp instr)
    t.code

let encode enc t =
  let module E = Mitos_util.Codec.Enc in
  E.array enc (Instr.encode enc) t.code;
  E.list enc
    (fun (name, addr) ->
      E.string enc name;
      E.uint enc addr)
    t.labels

let decode dec =
  let module D = Mitos_util.Codec.Dec in
  let code = D.array dec Instr.decode in
  let labels =
    D.list dec (fun dec ->
        let name = D.string dec in
        let addr = D.uint dec in
        (name, addr))
  in
  (* a target out of range is corrupt input, like any other bad byte *)
  try make ~labels code
  with Invalid_argument msg -> raise (Mitos_util.Codec.Malformed msg)
