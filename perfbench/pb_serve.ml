(* The served run: eras of fixed work against a fresh [calq serve],
   each timed end to end, each followed by a restart from its journal.

   An era is: spawn the server on a fresh journal, create the schema,
   bulk-load, define the rules and warm up ([setup_s]); the timed phase
   of whole rounds on every connection; the end-of-era checks; stop
   (reading VmHWM and the journal size); a restart from the journal
   ([recover_s]), checked against the live digest. Because an era's
   work is fixed, its journal, memory and recovery do not depend on how
   fast the timed phase ran. The run repeats eras until the timed phases
   add up to the requested seconds. *)

open Pb_wire

(* Nearest-rank percentile of a sorted array. *)
let percentile sorted p =
  let n = Array.length sorted in
  sorted.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  percentile a 0.5

type acc = {
  mutable attempted : int;
  mutable failed : int;
  mutable timed_s : float;
  mutable era_goodput : float list;
  mutable latencies : float array list;  (** each era's successful requests, sorted *)
  mutable setups : float list;
  mutable recovers : float list;
  mutable rss_mb : float list;
  mutable jratio : float list;
  errors : (string, int) Hashtbl.t;
  mutable eras : int;
}

let fresh_acc () =
  {
    attempted = 0;
    failed = 0;
    timed_s = 0.;
    era_goodput = [];
    latencies = [];
    setups = [];
    recovers = [];
    rss_mb = [];
    jratio = [];
    errors = Hashtbl.create 8;
    eras = 0;
  }

let note_error acc e =
  Hashtbl.replace acc.errors e (1 + Option.value ~default:0 (Hashtbl.find_opt acc.errors e))

(* Run [line] on [c] outside the timed phase; any failure is fatal. *)
let must c (req : Pb_work.req) =
  match Pb_work.check req (request c req.line) with
  | Ok () -> ()
  | Error e -> failwith (Printf.sprintf "untimed request failed: %s: %s" req.line e)

let must_setup c line =
  match request c line with
  | Pb_work.Err e -> failwith (Printf.sprintf "setup failed: %s: %s" line e)
  | Pb_work.Ok_lines ls -> (
    match List.find_opt (fun l -> String.length l >= 4 && String.sub l 0 4 = "err ") ls with
    | Some e -> failwith (Printf.sprintf "setup failed: %s: %s" line e)
    | None -> ())

let digest c =
  match request c "?digest" with
  | Pb_work.Ok_lines [ d ] when String.length d > 7 -> String.sub d 7 (String.length d - 7)
  | _ -> failwith "bad ?digest reply"

let journal_bytes dir base =
  Array.fold_left
    (fun acc f ->
      if String.length f >= String.length base && String.sub f 0 (String.length base) = base then
        acc + (Unix.stat (Filename.concat dir f)).Unix.st_size
      else acc)
    0 (Sys.readdir dir)

(* DBCRON eras: the firings the journal recorded, checked against the
   date oracle. *)
let check_journal_firings (w : Pb_work.t) journal =
  if w.Pb_work.rules <> [] then
    Pb_work.check_firings w
      (List.filter_map
         (fun r ->
           match String.split_on_char ' ' r with
           | [ "fired"; at; name ] -> Some (name, int_of_string at)
           | _ -> None)
         (Cal_db.Journal.read_records journal))

(* The log table's per-family counts, read over the protocol. *)
let check_log_counts (w : Pb_work.t) c =
  if w.Pb_work.rules <> [] then
    match request c "retrieve (rname, n = count(k)) from log group by rname" with
    | Pb_work.Err e -> failwith ("log count read failed: " ^ e)
    | Pb_work.Ok_lines [] -> failwith "empty log count reply"
    | Pb_work.Ok_lines (_header :: rows) ->
      let got =
        List.map
          (fun row ->
            match String.split_on_char '|' row with
            | [ name; n ] -> (String.sub name 1 (String.length name - 2), int_of_string n)
            | _ -> failwith ("bad log row " ^ row))
          rows
      in
      let want = Pb_work.expected_family_counts w in
      if List.sort compare got <> want then
        raise
          (Pb_work.Wrong_answer
             (Printf.sprintf "log holds %s, expected %s"
                (String.concat ", " (List.map (fun (f, n) -> Printf.sprintf "%s=%d" f n) (List.sort compare got)))
                (String.concat ", " (List.map (fun (f, n) -> Printf.sprintf "%s=%d" f n) want))))

let era ~calq ~tmp ~logdir ~seed ~name ~index acc =
  let w = Pb_work.make name seed in
  let base = Printf.sprintf "e%d.journal" index in
  let journal = Filename.concat tmp base in
  let sock = Filename.concat tmp (Printf.sprintf "e%d.sock" index) in
  let log = Filename.concat logdir (Printf.sprintf "server-e%d" index) in
  let write_bytes = ref 0 in
  let count_write line = write_bytes := !write_bytes + String.length line + 1 in
  let t0 = now () in
  let srv = spawn ~calq ~sock ~journal ~log in
  Fun.protect
    ~finally:(fun () -> kill srv)
    (fun () ->
      let c0 = connect srv in
      List.iter
        (fun line ->
          must_setup c0 line;
          count_write line)
        w.Pb_work.setup;
      let conns = Array.init w.Pb_work.conns (fun i -> if i = 0 then c0 else connect srv) in
      (* The phase's requests are generated before it starts and the
         replies checked after it ends, so the timed loop only sends,
         waits and records. *)
      let run_phase rounds ~timed =
        let per_conn = rounds * w.Pb_work.round in
        let reqs = Array.init w.Pb_work.conns (fun c -> Array.init per_conn (fun _ -> w.Pb_work.next c)) in
        let replies = Array.map (fun a -> Array.make (Array.length a) (Pb_work.Err "no reply")) reqs in
        let lats = Array.map (fun a -> Float.Array.make (Array.length a) 0.) reqs in
        let sent = Array.make w.Pb_work.conns 0 and got = Array.make w.Pb_work.conns 0 in
        let next c =
          if sent.(c) = per_conn then None
          else begin
            sent.(c) <- sent.(c) + 1;
            Some reqs.(c).(sent.(c) - 1)
          end
        in
        let on_reply c _req reply lat =
          replies.(c).(got.(c)) <- reply;
          Float.Array.set lats.(c) got.(c) lat;
          got.(c) <- got.(c) + 1
        in
        Gc.full_major ();
        let t = now () in
        drive conns ~next ~on_reply;
        let dt = now () -. t in
        let ok = ref [] in
        Array.iteri
          (fun c reqs ->
            Array.iteri
              (fun i (req : Pb_work.req) ->
                match Pb_work.check req replies.(c).(i) with
                | Ok () ->
                  if Pb_work.is_write req then count_write req.line;
                  ok := Float.Array.get lats.(c) i :: !ok
                | Error e ->
                  if timed then begin
                    acc.failed <- acc.failed + 1;
                    note_error acc e
                  end
                  else if req.kind <> Pb_work.Known_fault then
                    failwith (Printf.sprintf "warm-up request failed: %s: %s" req.line e))
              reqs)
          reqs;
        if timed then acc.attempted <- acc.attempted + (per_conn * w.Pb_work.conns);
        (!ok, dt)
      in
      ignore (run_phase w.Pb_work.warm_rounds ~timed:false);
      acc.setups <- (now () -. t0) :: acc.setups;
      let ok, dt = run_phase w.Pb_work.era_rounds ~timed:true in
      acc.timed_s <- acc.timed_s +. dt;
      let lat = Array.of_list ok in
      Array.sort compare lat;
      if Array.length lat < 1000 then
        failwith (Printf.sprintf "an era timed only %d successful requests; p99 needs 1000" (Array.length lat));
      acc.era_goodput <- (float_of_int (Array.length lat) /. dt) :: acc.era_goodput;
      acc.latencies <- lat :: acc.latencies;
      List.iter (must c0) (w.Pb_work.final ());
      check_log_counts w c0;
      let live = digest c0 in
      acc.rss_mb <- (float_of_int (peak_rss_kb srv.pid) /. 1024.) :: acc.rss_mb;
      Array.iter close conns;
      stop srv;
      let jb = journal_bytes tmp base in
      acc.jratio <- (float_of_int jb /. float_of_int !write_bytes) :: acc.jratio;
      check_journal_firings w journal;
      (* One restart per era: the run's restarts spread over its whole
         length, so the median does not rest on one stretch of time. *)
      let t = now () in
      let r = spawn ~calq ~sock ~journal ~log in
      Fun.protect
        ~finally:(fun () -> kill r)
        (fun () ->
          let c = connect r in
          let d = digest c in
          acc.recovers <- (now () -. t) :: acc.recovers;
          if d <> live then
            raise (Pb_work.Wrong_answer (Printf.sprintf "recovered digest %s, live server reported %s" d live));
          close c;
          stop r);
      acc.eras <- acc.eras + 1)

let run ~calq ~tmp ~logdir ~seed ~seconds ~name =
  let acc = fresh_acc () in
  let wall0 = now () in
  let index = ref 0 in
  (* Whole eras until the timed phases cover [seconds]; a wall-clock
     guard keeps a pathologically slow build inside the time limit. *)
  while acc.timed_s < seconds && (acc.eras = 0 || now () -. wall0 < 120.) do
    era ~calq ~tmp ~logdir ~seed ~name ~index:!index acc;
    incr index
  done;
  acc
