type stream = Open | Eof | Timed_out
type action = Need_more | Reply of string * int | Reply_close of string
type session = stream -> string -> int -> action

type conn = {
  fd : Unix.file_descr;
  session : session;
  mutable input : string;  (* read, not yet consumed *)
  mutable output : string;  (* not yet written *)
  mutable closing : bool;  (* close once [output] is written *)
  mutable deadline : int;  (* Clock.now_ns *)
}

(* One loop domain. The select sets are cached ([None] = stale) and
   rebuilt only when a connection comes, goes, or switches between
   waiting on its peer and waiting on its own output. *)
type loop = {
  listening : Unix.file_descr;
  accept : unit -> session;
  on_error : exn -> unit;
  timeout_ns : int;
  conns : (Unix.file_descr, conn) Hashtbl.t;
  chunk : Bytes.t;
  replies : Buffer.t;
  mutable sets : (Unix.file_descr list * Unix.file_descr list) option;
  mutable next_scan : int;
}

let tick = 0.2
(* Deadlines are [Clock.now_ns] ints. A timeout is capped at 1e9 s
   (~31 years), so an infinite one never expires and [now + timeout]
   stays inside an int. *)
let ns seconds = int_of_float (Float.min seconds 1e9 *. 1e9)
let tick_ns = ns tick

let close lp c =
  Hashtbl.remove lp.conns c.fd;
  Netio.close_quietly c.fd;
  lp.sets <- None

(* Write what the socket takes now; the rest waits for writability. *)
let flush lp c =
  let len = String.length c.output in
  match Unix.write_substring c.fd c.output 0 len with
  | n when n < len -> c.output <- String.sub c.output n (len - n)
  | _ ->
    c.output <- "";
    if c.closing then close lp c
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> close lp c

(* Hand the session each complete frame and send what it replies. A
   reply restarts the connection's timeout; partial input does not.
   After EOF or the timeout the connection closes, replied or not. A
   session that raises costs its own connection, not the loop: the
   replies it buffered this round are dropped, the exception is
   reported and the connection is closed. *)
let deliver lp c stream data now =
  let rec go pos =
    match c.session stream data pos with
    | Need_more -> c.input <- String.sub data pos (String.length data - pos)
    | Reply (reply, next) ->
      Buffer.add_string lp.replies reply;
      c.deadline <- now + lp.timeout_ns;
      go next
    | Reply_close reply ->
      Buffer.add_string lp.replies reply;
      c.deadline <- now + lp.timeout_ns;
      c.closing <- true
  in
  match go 0 with
  | exception e ->
    Buffer.clear lp.replies;
    lp.on_error e;
    close lp c
  | () ->
    if stream <> Open then c.closing <- true;
    if Buffer.length lp.replies > 0 then begin
      c.output <- Buffer.contents lp.replies;
      Buffer.clear lp.replies;
      flush lp c
    end
    else if c.closing then close lp c

let readable lp c now =
  match Unix.read c.fd lp.chunk 0 (Bytes.length lp.chunk) with
  | 0 -> deliver lp c Eof c.input now
  | n ->
    let fresh = Bytes.sub_string lp.chunk 0 n in
    deliver lp c Open (if c.input = "" then fresh else c.input ^ fresh) now
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> close lp c

(* Loops race for each connection; the losers see EAGAIN. A descriptor
   select cannot hold (≥ FD_SETSIZE) would make every later select
   fail with EINVAL, so it is refused at the door. *)
let admit lp now =
  match Unix.accept ~cloexec:true lp.listening with
  | fd, _ -> (
    match Unix.select [ fd ] [] [] 0.0 with
    | _ ->
      Unix.set_nonblock fd;
      Hashtbl.replace lp.conns fd
        { fd; session = lp.accept (); input = ""; output = ""; closing = false;
          deadline = now + lp.timeout_ns };
      lp.sets <- None
    | exception Unix.Unix_error (EINVAL, _, _) -> Netio.close_quietly fd)
  | exception Unix.Unix_error _ -> ()

(* A connection never waits on its peer while it has output pending:
   that is the backpressure. *)
let on lp fd f =
  match Hashtbl.find lp.conns fd with
  | c ->
    let writing = c.output <> "" in
    f c;
    if writing <> (c.output <> "") then lp.sets <- None
  | exception Not_found -> ()

(* Once a tick. A connection past its deadline with output still
   pending is closed as it stands. *)
let expire lp now =
  Hashtbl.fold (fun _ c due -> if c.deadline <= now then c :: due else due)
    lp.conns []
  |> List.iter (fun c ->
         if c.closing || c.output <> "" then close lp c
         else deliver lp c Timed_out c.input now;
         lp.sets <- None);
  lp.next_scan <- now + tick_ns

(* Writers go before readers, so a descriptor that is closed and then
   reused by an accept in the same round is not looked up again. *)
let serve lp stopping =
  while not (Atomic.get stopping) do
    let readers, writers =
      match lp.sets with
      | Some sets -> sets
      | None ->
        let sets =
          Hashtbl.fold
            (fun fd c (r, w) ->
              if c.output = "" then (fd :: r, w) else (r, fd :: w))
            lp.conns ([ lp.listening ], [])
        in
        lp.sets <- Some sets;
        sets
    in
    match Unix.select readers writers [] tick with
    | rd, wr, _ ->
      let now = Mitos_util.Clock.now_ns () in
      List.iter (fun fd -> on lp fd (flush lp)) wr;
      List.iter
        (fun fd ->
          if fd = lp.listening then admit lp now
          else on lp fd (fun c -> readable lp c now))
        rd;
      if now >= lp.next_scan then expire lp now
    | exception Unix.Unix_error (EINTR, _, _) -> ()
  done;
  Hashtbl.iter (fun fd _ -> Netio.close_quietly fd) lp.conns

let start ~domains ~timeout ~accept ~on_error sock =
  if domains < 1 then invalid_arg "Netloop.start: domains must be >= 1";
  Unix.set_nonblock sock;
  let stopping = Atomic.make false in
  let loop () =
    serve
      { listening = sock; accept; on_error;
        timeout_ns = ns timeout; conns = Hashtbl.create 16;
        chunk = Bytes.create 65536; replies = Buffer.create 4096; sets = None;
        next_scan = 0 }
      stopping
  in
  let domains = List.init domains (fun _ -> Domain.spawn loop) in
  fun () ->
    if not (Atomic.exchange stopping true) then begin
      List.iter Domain.join domains;
      Netio.close_quietly sock
    end
