module Netio = Mitos_obs.Netio

type endpoint =
  | Tcp of { host : string; port : int }
  | Unix_sock of string
  | Memory of string

let endpoint_to_string = function
  | Tcp { host; port } -> Printf.sprintf "tcp://%s:%d" host port
  | Unix_sock path -> "unix://" ^ path
  | Memory name -> "mem://" ^ name

let strip_prefix ~prefix s =
  let pl = String.length prefix in
  if String.length s >= pl && String.sub s 0 pl = prefix then
    Some (String.sub s pl (String.length s - pl))
  else None

let host_port s =
  match String.rindex_opt s ':' with
  | None -> Error (Printf.sprintf "no port in %S (want host:port)" s)
  | Some colon -> (
    let host = String.sub s 0 colon in
    let port_s = String.sub s (colon + 1) (String.length s - colon - 1) in
    match int_of_string_opt port_s with
    | Some port when host <> "" && port >= 0 -> Ok (Tcp { host; port })
    | _ -> Error (Printf.sprintf "bad host:port in %S" s))

let endpoint_of_string s =
  match strip_prefix ~prefix:"mem://" s with
  | Some name when name <> "" -> Ok (Memory name)
  | Some _ -> Error "empty loopback name in mem:// endpoint"
  | None -> (
    match strip_prefix ~prefix:"unix://" s with
    | Some path when path <> "" -> Ok (Unix_sock path)
    | Some _ -> Error "empty path in unix:// endpoint"
    | None -> (
      match strip_prefix ~prefix:"tcp://" s with
      | Some rest -> host_port rest
      | None -> host_port s))

(* -- connect-failure classification ------------------------------------- *)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let connect_failure msg =
  if contains ~sub:"refused connection" msg
     || contains ~sub:"no loopback server named" msg
  then `Refused
  else if contains ~sub:"timed out" msg || contains ~sub:"read timeout" msg
  then `Timeout
  else `Unknown

(* -- loopback registry -------------------------------------------------- *)

module Loopback = struct
  let lock = Mutex.create ()
  let table : (string, string -> string) Hashtbl.t = Hashtbl.create 8

  let locked f =
    Mutex.lock lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

  let register name handler =
    locked (fun () ->
        if Hashtbl.mem table name then
          invalid_arg
            (Printf.sprintf "Transport.Loopback.register: %S is taken" name);
        Hashtbl.replace table name handler)

  let unregister name = locked (fun () -> Hashtbl.remove table name)
  let registered name = locked (fun () -> Hashtbl.mem table name)
  let handler name = locked (fun () -> Hashtbl.find_opt table name)
end

(* -- connections -------------------------------------------------------- *)

type sock_state = {
  fd : Unix.file_descr;
  chunk : Bytes.t;  (* read buffer *)
  mutable pending : string;  (* bytes read but not yet handed out *)
  max_frame : int;
}

type kind =
  | Sock of sock_state
  | Mem of {
      name : string;
      handler : string -> string;
      pending : string Queue.t;
      mem_max_frame : int;
    }

type conn = { kind : kind; peer : string; mutable closed : bool }

let peer c = c.peer

let connect ?timeout ?(max_frame = Wire.default_max_frame) ep =
  let peer = endpoint_to_string ep in
  let sock = function
    | Error _ as e -> e
    | Ok fd ->
      Ok
        {
          kind =
            Sock { fd; chunk = Bytes.create 8192; pending = ""; max_frame };
          peer;
          closed = false;
        }
  in
  match ep with
  | Memory name -> (
    match Loopback.handler name with
    | None -> Error (Printf.sprintf "no loopback server named %S" name)
    | Some handler ->
      Ok
        {
          kind =
            Mem { name; handler; pending = Queue.create ();
                  mem_max_frame = max_frame };
          peer;
          closed = false;
        })
  | Tcp { host; port } -> sock (Netio.connect_tcp ?timeout ~host ~port ())
  | Unix_sock path -> sock (Netio.connect_unix ?timeout path)

let send c body =
  if c.closed then Error (c.peer ^ ": connection closed")
  else
    match c.kind with
    | Mem m -> (
      match m.handler body with
      | reply ->
        Queue.add reply m.pending;
        Ok ()
      | exception exn ->
        Error
          (Printf.sprintf "%s: handler raised %s" c.peer
             (Printexc.to_string exn)))
    | Sock s -> (
      match Netio.write_all s.fd (Wire.frame body) with
      | () -> Ok ()
      | exception Exit -> Error (c.peer ^ ": peer stopped reading")
      | exception Unix.Unix_error (err, _, _) ->
        Error (Printf.sprintf "%s: %s" c.peer (Unix.error_message err)))

(* Pull one frame out of the bytes read so far, reading more as
   needed. *)
let recv_sock s =
  let rec go () =
    match Wire.unframe ~max_frame:s.max_frame s.pending ~pos:0 with
    | Ok (body, pos) ->
      s.pending <- String.sub s.pending pos (String.length s.pending - pos);
      Ok body
    | Error (Truncated _) -> (
      match Unix.read s.fd s.chunk 0 (Bytes.length s.chunk) with
      | 0 ->
        (* EOF mid-frame (or before one); the offset is how much of a
           frame we were left holding *)
        Error (Wire.Truncated { offset = String.length s.pending })
      | n ->
        s.pending <- s.pending ^ Bytes.sub_string s.chunk 0 n;
        go ()
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
        Error (Wire.Corrupt { offset = 0; msg = "read timeout" })
      | exception Unix.Unix_error (err, _, _) ->
        Error (Wire.Corrupt { offset = 0; msg = Unix.error_message err }))
    | Error _ as e -> e
  in
  go ()

let recv c =
  if c.closed then
    Error (Wire.Corrupt { offset = 0; msg = c.peer ^ ": connection closed" })
  else
    match c.kind with
    | Mem m -> (
      match Queue.take_opt m.pending with
      | None -> Error (Wire.Truncated { offset = 0 })
      | Some frame ->
        if String.length frame > m.mem_max_frame then
          Error
            (Wire.Oversized
               { announced = String.length frame; limit = m.mem_max_frame })
        else Ok frame)
    | Sock s -> recv_sock s

let close c =
  if not c.closed then begin
    c.closed <- true;
    match c.kind with
    | Mem m -> Queue.clear m.pending
    | Sock s -> Netio.close_quietly s.fd
  end
