(* The traced run: each workload's generated inputs replayed in-process
   through the layers' public functions, on sessions built with the
   parameters [calq serve] uses, every call timed from here. It yields
   the per-layer metrics; the end-to-end ones come from the served run
   with tracing off. *)

open Calrules
module Journal = Cal_db.Journal
module Exec = Cal_db.Exec
module Protocol = Cal_server.Protocol
module Store = Cal_server.Store

let span = Pb_trace.span
let now = Pb_wire.now

let epoch = Civil.make 1990 1 1
let lifespan = (epoch, Civil.make (1990 + 39) 12 31)

(* What [calq serve --epoch 1990-01-01 --journal PATH] builds. *)
let serve_session ?domains path =
  Session.recover ~path ~epoch ~lifespan ?domains ~shards:1 ~probe_strategy:`Auto ()

let plain_session () = Session.create ~epoch ~lifespan ~shards:1 ~probe_strategy:`Auto ()

(* --- samples ------------------------------------------------------------- *)

let samples : (string, float list) Hashtbl.t = Hashtbl.create 64

let add name v = Hashtbl.replace samples name (v :: Option.value ~default:[] (Hashtbl.find_opt samples name))

let get name = Option.value ~default:[] (Hashtbl.find_opt samples name)

let median l =
  match List.sort compare l with
  | [] -> nan
  | s -> List.nth s (List.length s / 2)

let mean l = match l with [] -> nan | _ -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)
let us s = s *. 1e6

let stmts line = String.split_on_char ';' line |> List.map String.trim |> List.filter (( <> ) "")

let reply_of (r : Protocol.reply) =
  match r.Protocol.lines with
  | [ one ] when r.Protocol.failed = 1 && String.length one >= 4 && String.sub one 0 4 = "err " ->
    Pb_work.Err (String.sub one 4 (String.length one - 4))
  | lines -> Pb_work.Ok_lines lines

let must_ok what = function
  | Ok _ -> ()
  | Error e -> failwith (Printf.sprintf "%s: %s" what e)

let handle_setup store line =
  let r = Protocol.handle store line in
  if r.Protocol.failed > 0 then failwith ("traced setup failed: " ^ line)

(* Counts of the named workload's operations. *)
type counts = { mutable attempted : int; mutable failed : int }

let req_ids = ref 0

let next_req () =
  incr req_ids;
  !req_ids

(* Replay whole rounds (all connections) until [budget] seconds pass. *)
let rounds (w : Pb_work.t) ~budget f =
  let t0 = now () in
  let n = ref 0 in
  while now () -. t0 < budget do
    for c = 0 to w.Pb_work.conns - 1 do
      for _ = 1 to w.Pb_work.round do f c (w.Pb_work.next c) done
    done;
    incr n
  done;
  !n

let tally counts (req : Pb_work.req) reply =
  counts.attempted <- counts.attempted + 1;
  match Pb_work.check req reply with
  | Ok () -> true
  | Error _ ->
    counts.failed <- counts.failed + 1;
    false

(* Journal decode and replay of a finished replay's journal. *)
let recovery ?domains s path =
  Session.commit s;
  let digest = Session.state_digest s in
  let _, decode = span "journal.decode" (fun () -> Journal.read_records path) in
  let r, total = span "session.recover" (fun () -> serve_session ?domains path) in
  if Session.state_digest r <> digest then
    raise (Pb_work.Wrong_answer "recovered session digest differs from the live one");
  add "journal.decode_s" decode;
  add "session.replay_s" (total -. decode)

(* --- calendar-reads ------------------------------------------------------ *)

let calendar_reads ~seed ~tmp ~budget ~named counts =
  let w = Pb_work.make "calendar-reads" seed in
  let path = Filename.concat tmp "cr.journal" in
  let s = serve_session path in
  let store = Store.of_session s in
  List.iter (handle_setup store) w.Pb_work.setup;
  let hits = ref 0 and misses = ref 0 and evictions = ref 0 in
  let scanned = Hashtbl.create 4 and returned = Hashtbl.create 4 in
  let bump h k v = Hashtbl.replace h k (v + Option.value ~default:0 (Hashtbl.find_opt h k)) in
  ignore
    (rounds w ~budget (fun _c req ->
         let id = next_req () in
         let before = Session.cache_stats s in
         let h0 = before.Cal_cache.hits and m0 = before.Cal_cache.misses and e0 = before.Cal_cache.evictions in
         let (reply, ok), dt =
           span ~req:id "request" (fun () ->
               let r, _ = span "protocol.handle" (fun () -> Protocol.handle store req.Pb_work.line) in
               let reply = reply_of r in
               (reply, if named then tally counts req reply else Pb_work.check req reply = Ok ()))
         in
         ignore reply;
         let after = Session.cache_stats s in
         hits := !hits + after.Cal_cache.hits - h0;
         misses := !misses + after.Cal_cache.misses - m0;
         evictions := !evictions + after.Cal_cache.evictions - e0;
         if ok then begin
           (match req.Pb_work.kind with
           | Pb_work.Read_on | Pb_work.Read_range -> add "protocol.handle_us.read" (us dt)
           | _ -> ());
           let layer kind =
             let stats = Exec.fresh_stats () in
             let snap = Store.snapshot store in
             let r, dt =
               span ~req:id ("exec.read." ^ kind) (fun () -> Exec.run_read snap ~stats req.Pb_work.line)
             in
             must_ok "traced read" r;
             add ("exec.read_us." ^ kind) (us dt);
             (match req.Pb_work.expect with
             | Pb_work.Agg (n, _) ->
               bump scanned kind stats.Exec.scanned;
               bump returned kind n
             | _ -> ())
           in
           match (req.Pb_work.kind, req.Pb_work.shape) with
           | Pb_work.Read_on, Some shape ->
             let _, dt =
               span ~req:id "calendar.resolve" (fun () ->
                   Session.resolve_days s.Session.ctx (Pb_date.expr_of_shape shape))
             in
             add "calendar.resolve_us" (us dt);
             layer "calendar"
           | Pb_work.Read_range, _ -> layer "range"
           | _ -> ()
         end));
  let ratio k =
    match (Hashtbl.find_opt scanned k, Hashtbl.find_opt returned k) with
    | Some a, Some b when b > 0 -> float_of_int a /. float_of_int b
    | _ -> nan
  in
  add "exec.rows_examined_per_row.range" (ratio "range");
  add "exec.rows_examined_per_row.calendar" (ratio "calendar");
  add "cal_cache.hit_ratio" (float_of_int !hits /. float_of_int (max 1 (!hits + !misses)));
  add "cal_cache.evictions" (float_of_int !evictions);
  if named then recovery s path

(* The same reads served on one connection, then on two, as a ratio of
   goodputs: whether a second reader adds throughput or takes it away. *)
let served_readers ~calq ~seed ~tmp ~logdir =
  let w = Pb_work.make "calendar-reads" seed in
  let srv =
    Pb_wire.spawn ~calq ~sock:(Filename.concat tmp "cr.sock")
      ~journal:(Filename.concat tmp "cr.served.journal")
      ~log:(Filename.concat logdir "traced-server-cr")
  in
  Fun.protect
    ~finally:(fun () -> Pb_wire.kill srv)
    (fun () ->
      let c0 = Pb_wire.connect srv in
      List.iter (Pb_serve.must_setup c0) w.Pb_work.setup;
      let c1 = Pb_wire.connect srv in
      let goodput conns =
        let left = Array.make (Array.length conns) (8 * w.Pb_work.round) and ok = ref 0 in
        let t = now () in
        Pb_wire.drive conns
          ~next:(fun c ->
            if left.(c) = 0 then None
            else begin
              left.(c) <- left.(c) - 1;
              Some (w.Pb_work.next c)
            end)
          ~on_reply:(fun _ req reply _ -> if Pb_work.check req reply = Ok () then incr ok);
        float_of_int !ok /. (now () -. t)
      in
      let one = goodput [| c0 |] in
      let two = goodput [| c0; c1 |] in
      add "server.read_goodput_2conn_over_1conn" (two /. one);
      Pb_wire.close c0;
      Pb_wire.close c1;
      Pb_wire.stop srv)

(* --- ledger-writes ------------------------------------------------------- *)

let ledger_writes ~calq ~seed ~tmp ~logdir ~budget ~named counts =
  let w = Pb_work.make "ledger-writes" seed in
  let rule_line = List.nth w.Pb_work.setup (List.length w.Pb_work.setup - 1) in
  let apply s line = List.iter (fun q -> must_ok q (Session.query s q)) (stmts line) in
  (* Twins: no journal and no event rule; the event rule but no journal;
     both, applied directly; and the served configuration behind
     Protocol.handle. *)
  let s0 = plain_session () and s1 = plain_session () in
  let s2 = serve_session (Filename.concat tmp "lw2.journal") in
  let path = Filename.concat tmp "lw3.journal" in
  let s3 = serve_session path in
  let store = Store.of_session s3 in
  List.iter
    (fun line ->
      if line <> rule_line then apply s0 line;
      apply s1 line;
      Session.batch s2 (fun () -> apply s2 line);
      handle_setup store line)
    w.Pb_work.setup;
  (* The same lines, served, in lockstep: served latency minus in-process
     handling of the same line is the wire's share. *)
  let srv =
    Pb_wire.spawn ~calq ~sock:(Filename.concat tmp "lw.sock")
      ~journal:(Filename.concat tmp "lw.served.journal")
      ~log:(Filename.concat logdir "traced-server")
  in
  Fun.protect
    ~finally:(fun () -> Pb_wire.kill srv)
    (fun () ->
      let c0 = Pb_wire.connect srv in
      List.iter (Pb_serve.must_setup c0) w.Pb_work.setup;
      let dml = ref [] and ev = ref [] and jr = ref [] in
      ignore
        (rounds w ~budget (fun _c req ->
             let id = next_req () in
             let line = req.Pb_work.line in
             let (served, handled), _ =
               span ~req:id "request" (fun () ->
                   let reply, served = span "served" (fun () -> Pb_wire.request c0 line) in
                   (match Pb_work.check req reply with
                   | Ok () -> ()
                   | Error e -> failwith ("traced served request failed: " ^ e));
                   let r, handled = span "protocol.handle" (fun () -> Protocol.handle store line) in
                   let reply = reply_of r in
                   if named then ignore (tally counts req reply)
                   else (match Pb_work.check req reply with Ok () -> () | Error e -> failwith e);
                   (served, handled))
             in
             add "server.wire_us" (us (served -. handled));
             if Pb_work.is_write req then begin
               add "protocol.handle_us.write" (us handled);
               List.iter
                 (fun q ->
                   let _, dt = span ~req:id "qparser.parse" (fun () -> Cal_db.Qparser.query q) in
                   add "qparser.parse_us" (us dt))
                 (stmts line);
               let _, t0 = span ~req:id "exec.dml" (fun () -> apply s0 line) in
               let _, t1 = span ~req:id "exec.dml+rules" (fun () -> apply s1 line) in
               let _, t2 =
                 span ~req:id "exec.dml+rules+journal" (fun () ->
                     Session.batch s2 (fun () -> apply s2 line))
               in
               let _, tp = span ~req:id "store.publish" (fun () -> Session.freeze s2) in
               dml := t0 :: !dml;
               ev := t1 :: !ev;
               jr := t2 :: !jr;
               add "store.publish_us" (us tp)
             end
             else begin
               let snap = Store.snapshot store in
               let r, dt = span ~req:id "exec.read.point" (fun () -> Exec.run_read snap line) in
               must_ok "point read" r;
               add "exec.read_us.point" (us dt)
             end));
      add "exec.dml_us" (us (mean !dml));
      add "rules.event_us" (us (mean !ev -. mean !dml));
      add "journal.append_us" (us (mean !jr -. mean !ev));
      let pc = Session.plan_cache_stats s3 in
      add "qplan.cache_hit_ratio"
        (float_of_int pc.Cal_db.Qplan.hits /. float_of_int (max 1 (pc.Cal_db.Qplan.hits + pc.Cal_db.Qplan.misses)));
      (match Session.journal_stats s3 with
      | Some (records, flushes) -> add "journal.records_per_flush" (float_of_int records /. float_of_int (max 1 flushes))
      | None -> ());
      (* A short two-connection burst on the served store, then its
         admission-queue peak. *)
      let c1 = Pb_wire.connect srv in
      let left = Array.make 2 (20 * w.Pb_work.round) in
      Pb_wire.drive [| c0; c1 |]
        ~next:(fun c ->
          if left.(c) = 0 then None
          else begin
            left.(c) <- left.(c) - 1;
            Some (w.Pb_work.next c)
          end)
        ~on_reply:(fun _ req reply _ ->
          match Pb_work.check req reply with Ok () -> () | Error e -> failwith e);
      (match Pb_wire.request c0 "?stats" with
      | Pb_work.Ok_lines [ l ] ->
        List.iter
          (fun kv ->
            match String.split_on_char '=' kv with
            | [ "queue_peak"; v ] -> add "store.queue_peak" (float_of_string v)
            | _ -> ())
          (String.split_on_char ' ' l)
      | _ -> failwith "bad ?stats reply");
      Pb_wire.close c0;
      Pb_wire.close c1;
      Pb_wire.stop srv);
  if named then recovery s3 path

(* --- dbcron-years -------------------------------------------------------- *)

let dbcron_years ~seed ~tmp ~budget ~named counts =
  let w = Pb_work.make "dbcron-years" seed in
  let path = Filename.concat tmp "db.journal" in
  let d = serve_session path in
  (* The same rules on one domain: the pool's cost, shown beside it. *)
  let d1 = serve_session ~domains:1 (Filename.concat tmp "db1.journal") in
  List.iter
    (fun line ->
      let r, dt = span "rules.define" (fun () -> Session.query d line) in
      must_ok line r;
      if String.length line > 6 && String.sub line 0 6 = "define" then add "rules.define_us" (us dt);
      must_ok line (Session.query d1 line))
    w.Pb_work.setup;
  let exprs =
    List.map
      (fun (_, shape) ->
        match Cal_lang.Parser.expr (Pb_date.expr_of_shape shape) with
        | Ok e -> e
        | Error e -> failwith e)
      w.Pb_work.rules
  in
  let t0 = now () in
  let day = ref 0 in
  while now () -. t0 < budget && !day < Pb_work.db_days do
    let id = next_req () in
    let req = w.Pb_work.next 0 in
    incr day;
    let _, dt =
      span ~req:id "request" (fun () -> span "rules.day_step" (fun () -> Session.advance_days d 1))
    in
    if named then counts.attempted <- counts.attempted + 1;
    ignore req;
    add "rules.day_step_us" (us dt);
    let _, dt1 = span ~req:id "rules.day_step.domains1" (fun () -> Session.advance_days d1 1) in
    add "rules.day_step_us.domains1" (us dt1);
    if !day mod 28 = 0 then begin
      let after = Session.now d in
      List.iter
        (fun e ->
          let kind =
            match Cal_rules.Next_fire.resolve d.Session.ctx e `Auto with
            | `Periodic -> "periodic"
            | `Stream | `Materialize -> "stream"
          in
          let _, dt =
            span ("rules.probe." ^ kind) (fun () ->
                Cal_rules.Next_fire.next d.Session.ctx e ~after ~strategy:`Auto ())
          in
          add ("rules.probe_us." ^ kind) (us dt))
        exprs
    end
  done;
  Pb_work.check_firings w
    (List.map (fun f -> (f.Cal_rules.Manager.rule, f.Cal_rules.Manager.at)) (Session.firings d));
  let batches, firings = Cal_rules.Manager.coalesce_stats d.Session.manager in
  add "rules.firings_per_batch" (float_of_int firings /. float_of_int (max 1 batches));
  add "pool.parallel_batches" (float_of_int (fst (Cal_rules.Manager.parallel_stats d.Session.manager)));
  if named then recovery d path

(* --- the run ------------------------------------------------------------- *)

let metrics =
  [
    ("server.wire_us", "us", `Median);
    ("server.read_goodput_2conn_over_1conn", "ratio", `Last);
    ("protocol.handle_us.read", "us", `Median);
    ("protocol.handle_us.write", "us", `Median);
    ("qparser.parse_us", "us", `Mean);
    ("qplan.cache_hit_ratio", "ratio", `Last);
    ("exec.read_us.range", "us", `Median);
    ("exec.read_us.calendar", "us", `Median);
    ("exec.read_us.point", "us", `Mean);
    ("exec.rows_examined_per_row.range", "ratio", `Last);
    ("exec.rows_examined_per_row.calendar", "ratio", `Last);
    ("exec.dml_us", "us", `Last);
    ("rules.event_us", "us", `Last);
    ("calendar.resolve_us", "us", `Median);
    ("cal_cache.hit_ratio", "ratio", `Last);
    ("cal_cache.evictions", "count", `Last);
    ("store.publish_us", "us", `Mean);
    ("store.queue_peak", "count", `Last);
    ("journal.append_us", "us", `Last);
    ("journal.records_per_flush", "ratio", `Last);
    ("journal.decode_s", "s", `Last);
    ("session.replay_s", "s", `Last);
    ("rules.day_step_us", "us", `Median);
    ("rules.day_step_us.domains1", "us", `Median);
    ("rules.probe_us.periodic", "us", `Mean);
    ("rules.probe_us.stream", "us", `Median);
    ("rules.firings_per_batch", "ratio", `Last);
    ("rules.define_us", "us", `Median);
    ("pool.parallel_batches", "count", `Last);
  ]

let run ~calq ~tmp ~logdir ~seed ~seconds ~name =
  let counts = { attempted = 0; failed = 0 } in
  let budget = seconds /. 3. in
  calendar_reads ~seed ~tmp ~budget ~named:(name = "calendar-reads") counts;
  served_readers ~calq ~seed ~tmp ~logdir;
  ledger_writes ~calq ~seed ~tmp ~logdir ~budget ~named:(name = "ledger-writes") counts;
  dbcron_years ~seed ~tmp ~budget ~named:(name = "dbcron-years") counts;
  Pb_trace.write (Filename.concat logdir "spans.jsonl");
  let values =
    List.map
      (fun (m, unit, how) ->
        let l = get m in
        let v =
          match how with
          | `Median -> median l
          | `Mean -> mean l
          | `Last -> ( match l with x :: _ -> x | [] -> nan)
        in
        (m, unit, v))
      metrics
  in
  (counts, values)
