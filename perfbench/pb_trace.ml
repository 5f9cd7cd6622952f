(* Spans for the traced run, kept in memory and written out at the end.
   A span has a name, start and end, the span that caused it and the
   request it belongs to; spans of one request share that id. Spans are
   recorded only around calls the benchmark makes into each layer —
   nothing inside lib/ is instrumented. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 at the root *)
  req : int;  (** -1 outside any request *)
  t0 : float;
  mutable t1 : float;
}

let spans : span list ref = ref []
let next_id = ref 0
let stack : (int * int) list ref = ref [] (* (span id, request id) *)
let count = ref 0

(* Keep memory bounded on very fast builds: past the cap, durations are
   still measured and returned, but no more spans are stored. *)
let cap = 200_000

(* [span ?req name f] runs [f] inside a span and returns its result and
   duration in seconds. [req] defaults to the enclosing span's request. *)
let span ?req name f =
  let parent, preq = match !stack with (p, r) :: _ -> (p, r) | [] -> (-1, -1) in
  let req = Option.value req ~default:preq in
  let id = !next_id in
  incr next_id;
  let s = { id; name; parent; req; t0 = Unix.gettimeofday (); t1 = 0. } in
  stack := (id, req) :: !stack;
  let finish () =
    s.t1 <- Unix.gettimeofday ();
    stack := List.tl !stack;
    if !count < cap then begin
      incr count;
      spans := s :: !spans
    end
  in
  match f () with
  | v ->
    finish ();
    (v, s.t1 -. s.t0)
  | exception e ->
    finish ();
    raise e

(* Self time: the span minus the time its children cover (children of
   one span never overlap: the traced run is single-threaded). *)
let self_times () =
  let child = Hashtbl.create 4096 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (Option.value ~default:0. (Hashtbl.find_opt child s.parent) +. (s.t1 -. s.t0)))
    !spans;
  fun s -> s.t1 -. s.t0 -. Option.value ~default:0. (Hashtbl.find_opt child s.id)

(* Per-name totals of self time, in seconds, busiest first. *)
let self_by_name () =
  let self = self_times () in
  let tot = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let n, t = Option.value ~default:(0, 0.) (Hashtbl.find_opt tot s.name) in
      Hashtbl.replace tot s.name (n + 1, t +. self s))
    !spans;
  Hashtbl.fold (fun k (n, t) acc -> (k, n, t) :: acc) tot []
  |> List.sort (fun (_, _, a) (_, _, b) -> compare b a)

let write path =
  let self = self_times () in
  let oc = open_out path in
  let base = match List.rev !spans with s :: _ -> s.t0 | [] -> 0. in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"parent\":%d,\"req\":%d,\"start_us\":%.1f,\"end_us\":%.1f,\"self_us\":%.1f}\n"
        s.id s.name s.parent s.req
        ((s.t0 -. base) *. 1e6)
        ((s.t1 -. base) *. 1e6)
        (self s *. 1e6))
    (List.rev !spans);
  close_out oc
