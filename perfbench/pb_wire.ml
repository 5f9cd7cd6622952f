(* The server process and the client side of the line protocol, written
   against plain Unix sockets so that the server receives nothing but
   the generated request lines. *)

let now () = Unix.gettimeofday ()

(* --- the server process ------------------------------------------------- *)

type server = {
  pid : int;
  stdin_w : Unix.file_descr;
  sock : string;  (** relative path of the Unix socket *)
  journal : string;
  mutable stdin_open : bool;
  mutable reaped : bool;
}

(* The server runs at its defaults: the tuning variables are cleared
   from its environment and it gets no flag beyond address, journal and
   epoch. *)
let server_env () =
  Unix.environment ()
  |> Array.to_list
  |> List.filter (fun kv ->
         let key = match String.index_opt kv '=' with Some i -> String.sub kv 0 i | None -> kv in
         not
           (key = "CALRULES_DOMAINS" || key = "CALRULES_JOURNAL_GROUP"
           || (String.length key >= 5 && String.sub key 0 5 = "CALQ_")))
  |> Array.of_list

let open_log path =
  Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ] 0o644

let spawn ~calq ~sock ~journal ~log =
  (* Both pipe ends are close-on-exec: the child gets the read end as its
     stdin (dup2 clears the flag on the copy) but never inherits the
     write end, so closing ours is an EOF the server sees. *)
  let r, w = Unix.pipe ~cloexec:true () in
  let out = open_log (log ^ ".stdout") and err = open_log (log ^ ".stderr") in
  let args =
    [| calq; "serve"; "--epoch"; Pb_date.epoch_string; "--journal"; journal; "unix:" ^ sock |]
  in
  let pid = Unix.create_process_env calq args (server_env ()) r out err in
  Unix.close r;
  Unix.close out;
  Unix.close err;
  { pid; stdin_w = w; sock; journal; stdin_open = true; reaped = false }

let rec waitpid_retry flags pid =
  match Unix.waitpid flags pid with
  | r -> r
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry flags pid

(* VmHWM of a live process, in kB. *)
let peak_rss_kb pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" Fun.id
        | _ -> go ()
        | exception End_of_file -> 0
      in
      go ())

(* Close stdin and wait for a clean exit; kill after [grace] seconds. *)
let close_stdin s =
  if s.stdin_open then begin
    s.stdin_open <- false;
    try Unix.close s.stdin_w with Unix.Unix_error _ -> ()
  end

let reap s flags =
  match waitpid_retry flags s.pid with
  | 0, _ -> None
  | _, st ->
    s.reaped <- true;
    Some st

let stop ?(grace = 60.) s =
  close_stdin s;
  let deadline = now () +. grace in
  let rec wait () =
    match reap s [ Unix.WNOHANG ] with
    | None ->
      if now () > deadline then begin
        (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (reap s []);
        failwith "server did not stop within its grace period"
      end
      else begin
        Unix.sleepf 0.002;
        wait ()
      end
    | Some (Unix.WEXITED 0) -> ()
    | Some (Unix.WEXITED n) -> failwith (Printf.sprintf "server exited with code %d" n)
    | Some (Unix.WSIGNALED n | Unix.WSTOPPED n) ->
      failwith (Printf.sprintf "server killed by signal %d" n)
  in
  wait ()

(* Make sure a server is gone; a no-op once it has been reaped. *)
let kill s =
  close_stdin s;
  if not s.reaped then begin
    (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
    try ignore (reap s []) with Unix.Unix_error _ -> ()
  end

(* --- connections --------------------------------------------------------- *)

type conn = {
  fd : Unix.file_descr;
  buf : Buffer.t;  (** received, not yet consumed *)
  chunk : Bytes.t;
}

(* Connect, polling until the server has bound its socket. *)
let connect ?(timeout = 120.) s =
  let deadline = now () +. timeout in
  let rec go () =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX s.sock) with
    | () -> { fd; buf = Buffer.create 65536; chunk = Bytes.create 65536 }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED | Unix.EAGAIN), _, _) ->
      Unix.close fd;
      if reap s [ Unix.WNOHANG ] <> None then failwith "server exited before accepting connections";
      if now () > deadline then failwith "server did not accept connections in time";
      Unix.sleepf 0.001;
      go ()
  in
  go ()

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send c line =
  let b = Bytes.of_string (line ^ "\n") in
  let rec go off =
    if off < Bytes.length b then
      match Unix.write c.fd b off (Bytes.length b - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

(* Try to take one complete reply off the buffer. *)
let take_reply c =
  let s = Buffer.contents c.buf in
  let len = String.length s in
  let line_end from = String.index_from_opt s from '\n' in
  match line_end 0 with
  | None -> None
  | Some e ->
    let header = String.sub s 0 e in
    let unescape l = try Scanf.unescaped l with _ -> l in
    let consume upto =
      let rest = String.sub s upto (len - upto) in
      Buffer.clear c.buf;
      Buffer.add_string c.buf rest
    in
    if String.length header >= 3 && String.sub header 0 3 = "ok " then begin
      let n = int_of_string (String.sub header 3 (String.length header - 3)) in
      let rec lines k pos acc =
        if k = 0 then Some (List.rev acc, pos)
        else
          match line_end pos with
          | None -> None
          | Some e -> lines (k - 1) (e + 1) (unescape (String.sub s pos (e - pos)) :: acc)
      in
      match lines n (e + 1) [] with
      | None -> None
      | Some (ls, pos) ->
        consume pos;
        Some (Pb_work.Ok_lines ls)
    end
    else begin
      consume (e + 1);
      let h = unescape header in
      Some (Pb_work.Err (if String.length h >= 4 && String.sub h 0 4 = "err " then String.sub h 4 (String.length h - 4) else h))
    end

(* Read whatever is available (blocking once); false on EOF. *)
let fill c =
  match Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) with
  | 0 -> false
  | n ->
    Buffer.add_subbytes c.buf c.chunk 0 n;
    true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> true

let rec recv c =
  match take_reply c with
  | Some r -> r
  | None -> if fill c then recv c else failwith "server closed the connection"

let request c line =
  send c line;
  recv c

(* --- closed-loop driving ----------------------------------------------- *)

(* Drive [conns] as closed loops: each connection sends its next request
   only after the reply to the previous one. [next c] gives connection
   [c]'s next request or [None] when it is done; [on_reply c req reply
   latency] sees every completed request. One process, one thread: a
   select loop, so the generator never contends with itself. *)
let drive conns ~next ~on_reply =
  let n = Array.length conns in
  let inflight = Array.make n None in
  let start c =
    match next c with
    | None -> ()
    | Some req ->
      let t = now () in
      send conns.(c) req.Pb_work.line;
      inflight.(c) <- Some (req, t)
  in
  for c = 0 to n - 1 do start c done;
  let busy () = Array.exists Option.is_some inflight in
  while busy () do
    let fds = List.filter_map (fun c -> if inflight.(c) <> None then Some conns.(c).fd else None) (List.init n Fun.id) in
    let ready = match Unix.select fds [] [] (-1.) with r, _, _ -> r | exception Unix.Unix_error (Unix.EINTR, _, _) -> [] in
    for c = 0 to n - 1 do
      if List.mem conns.(c).fd ready then begin
        if not (fill conns.(c)) then failwith "server closed the connection";
        match (take_reply conns.(c), inflight.(c)) with
        | Some reply, Some (req, t) ->
          let lat = now () -. t in
          inflight.(c) <- None;
          on_reply c req reply lat;
          start c
        | Some _, None -> failwith "reply without a request"
        | None, _ -> ()
      end
    done
  done
