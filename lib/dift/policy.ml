open Mitos_tag

type flow_kind = Direct_copy | Direct_compute | Addr | Ctrl | Ijump

let flow_kind_to_string = function
  | Direct_copy -> "copy"
  | Direct_compute -> "compute"
  | Addr -> "addr-dep"
  | Ctrl -> "ctrl-dep"
  | Ijump -> "ijump"

let is_indirect = function
  | Addr | Ctrl | Ijump -> true
  | Direct_copy | Direct_compute -> false

type request = {
  kind : flow_kind;
  candidates : Tag.t list;
  space : int;
  width : int;
  stats : Tag_stats.t;
  step : int;
  ctx : Mitos.Decision.ctx;
  scratch : Mitos.Decision.scratch;
}

type t = { name : string; select : request -> Tag.t list }

let make ~name ~select = { name; select }
let name t = t.name
let select t request = t.select request
