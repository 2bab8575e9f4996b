type payload = { status : int; content_type : string; body : string }

let text ?(status = 200) body =
  { status; content_type = "text/plain; charset=utf-8"; body }

let json ?(status = 200) body =
  { status; content_type = "application/json"; body }

let prometheus ?(status = 200) body =
  { status; content_type = "text/plain; version=0.0.4"; body }

type route = {
  path : string;
  file : string;
  describe : string;
  payload : (string * string) list -> payload;
}

let route ?(describe = "") ~file path payload =
  { path; file; describe; payload = (fun _query -> payload ()) }

let route_q ?(describe = "") ~file path payload = { path; file; describe; payload }

(* -- HTTP plumbing --------------------------------------------------- *)

let status_reason = function
  | 200 -> "OK"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 500 -> "Internal Server Error"
  | 503 -> "Service Unavailable"
  | _ -> "Status"

let response p =
  Printf.sprintf
    "HTTP/1.0 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\n\
     Connection: close\r\n\r\n%s"
    p.status (status_reason p.status) p.content_type (String.length p.body)
    p.body

(* "a=1&b=2" → [("a","1"); ("b","2")]. No percent-decoding: route
   payloads that care (e.g. /tracez?trace_id=) match hex ids, which
   never need escaping. Keys without '=' get the empty value. *)
let parse_query s =
  String.split_on_char '&' s
  |> List.filter_map (fun kv ->
         if kv = "" then None
         else
           match String.index_opt kv '=' with
           | None -> Some (kv, "")
           | Some eq ->
             Some
               ( String.sub kv 0 eq,
                 String.sub kv (eq + 1) (String.length kv - eq - 1) ))

(* First request line → (method, path, query pairs). *)
let parse_request head =
  match String.index_opt head '\r' with
  | None -> None
  | Some eol -> (
    let line = String.sub head 0 eol in
    match String.split_on_char ' ' line with
    | meth :: target :: _ ->
      let path, query =
        match String.index_opt target '?' with
        | Some q ->
          ( String.sub target 0 q,
            parse_query
              (String.sub target (q + 1) (String.length target - q - 1)) )
        | None -> (target, [])
      in
      Some (meth, path, query)
    | _ -> None)

let index_payload routes _query =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "mitos telemetry endpoints:\n";
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "  %-16s %s\n" r.path r.describe))
    routes;
  text (Buffer.contents buf)

let answer routes head =
  response
    (match parse_request head with
    | None -> text ~status:500 "malformed request\n"
    | Some (meth, _, _) when meth <> "GET" ->
      text ~status:405 "only GET is supported\n"
    | Some (_, path, query) -> (
      match List.find_opt (fun r -> r.path = path) routes with
      | None -> text ~status:404 (Printf.sprintf "no route %s\n" path)
      | Some r -> (
        try r.payload query
        with exn ->
          text ~status:500 (Printf.sprintf "%s\n" (Printexc.to_string exn)))))

(* -- serving --------------------------------------------------------- *)

let head_limit = 65536

(* Where the blank line ending an HTTP head starts, searching on from
   [i]. *)
let rec head_end s i =
  if i + 3 >= String.length s then None
  else if
    s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r' && s.[i + 3] = '\n'
  then Some i
  else head_end s (i + 1)

(* Bodies are never read (the only method is GET), so a request is its
   head: answered once the blank line ending it arrives, past
   [head_limit], or at EOF or timeout with whatever was read.
   [scanned] keeps each byte from being searched twice; the 3-byte
   overlap catches a terminator split across reads. *)
let http_session routes () =
  let scanned = ref 0 in
  fun (stream : Netloop.stream) head _ ->
    if
      stream <> Open
      || String.length head > head_limit
      || head_end head (max 0 (!scanned - 3)) <> None
    then Netloop.Reply_close (answer routes head)
    else begin
      scanned := String.length head;
      Netloop.Need_more
    end

type t = { stop : unit -> unit; bound_host : string; bound_port : int }

let start ?(host = "127.0.0.1") ?(port = 0) routes =
  let sock, bound_port = Netio.listen_tcp ~host ~port () in
  let routes =
    { path = "/"; file = "index.txt"; describe = "this index";
      payload = index_payload routes }
    :: routes
  in
  let stop =
    Netloop.start ~domains:1 ~timeout:Netio.default_timeout
      ~accept:(http_session routes) ~on_error:ignore sock
  in
  { stop; bound_host = host; bound_port }

let port t = t.bound_port
let addr t = Printf.sprintf "%s:%d" t.bound_host t.bound_port
let stop t = t.stop ()

(* -- offline twin ---------------------------------------------------- *)

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir)
  then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (EEXIST, _, _) -> ()
  end

let oneshot ~dir routes =
  mkdir_p dir;
  List.map
    (fun r ->
      let path = Filename.concat dir r.file in
      let p = r.payload [] in
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc p.body);
      (r.file, path))
    routes

(* -- client ---------------------------------------------------------- *)

let parse_url url =
  let rest =
    let prefix = "http://" in
    if
      String.length url >= String.length prefix
      && String.sub url 0 (String.length prefix) = prefix
    then String.sub url (String.length prefix) (String.length url - String.length prefix)
    else url
  in
  let authority, path =
    match String.index_opt rest '/' with
    | Some slash ->
      ( String.sub rest 0 slash,
        String.sub rest slash (String.length rest - slash) )
    | None -> (rest, "/")
  in
  match String.rindex_opt authority ':' with
  | None -> Error (Printf.sprintf "no port in %S (want host:port)" url)
  | Some colon -> (
    let host = String.sub authority 0 colon in
    let port_s =
      String.sub authority (colon + 1) (String.length authority - colon - 1)
    in
    match int_of_string_opt port_s with
    | Some port when host <> "" -> Ok (host, port, path)
    | _ -> Error (Printf.sprintf "bad host:port in %S" url))

let fetch ?timeout ~host ~port ~path () =
  match Netio.connect_tcp ?timeout ~host ~port () with
  | Error _ as e -> e
  | Ok sock -> (
    let finally () = Netio.close_quietly sock in
    match
      Fun.protect ~finally (fun () ->
          Netio.write_all sock
            (Printf.sprintf
               "GET %s HTTP/1.0\r\nHost: %s\r\nConnection: close\r\n\r\n"
               path host);
          Netio.read_to_eof sock)
    with
    | exception Unix.Unix_error (err, _, _) ->
      Error
        (Printf.sprintf "%s:%d unreachable (%s)" host port
           (Unix.error_message err))
    | exception Exit -> Error (Printf.sprintf "%s:%d closed early" host port)
    | raw -> (
      (* "HTTP/1.0 200 OK\r\nheaders...\r\n\r\nbody" *)
      match head_end raw 0 with
      | None -> Error "malformed HTTP response (no header terminator)"
      | Some sep -> (
        let head = String.sub raw 0 sep in
        let body =
          String.sub raw (sep + 4) (String.length raw - sep - 4)
        in
        let status_line =
          match String.index_opt head '\r' with
          | Some eol -> String.sub head 0 eol
          | None -> head
        in
        match String.split_on_char ' ' status_line with
        | _http :: code :: _ -> (
          match int_of_string_opt code with
          | Some status -> Ok (status, body)
          | None -> Error ("malformed status line: " ^ status_line))
        | _ -> Error ("malformed status line: " ^ status_line))))

let fetch_url ?timeout url =
  match parse_url url with
  | Error _ as e -> e
  | Ok (host, port, path) -> fetch ?timeout ~host ~port ~path ()
