(* The served-store benchmark's entry point (run it through run.py):

     bench.exe --workload NAME --seed N --seconds S --trace 0|1 --calq PATH
     bench.exe selfcheck

   With --trace 0 it serves the workload from a separate calq process
   and prints the end-to-end metrics; with --trace 1 it replays the
   inputs in-process and prints the per-layer metrics. The last line of
   standard output is one JSON object: correct, attempted, failed and
   metrics. *)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let print_result ~correct ~attempted ~failed metrics =
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun (name, unit, v) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num v) unit)
          metrics))

let served ~calq ~tmp ~logdir ~seed ~seconds ~name =
  let acc = Pb_serve.run ~calq ~tmp ~logdir ~seed ~seconds ~name in
  let median = Pb_serve.median in
  (* Per-era figures, median over the run's eras: a slow spell of the
     host that spans a few eras does not move the run's figure. Every era
     has at least 1,000 successful requests, so its p99 has ten or more
     beyond it. *)
  let per_era p = List.map (fun l -> 1e3 *. Pb_serve.percentile l p) acc.Pb_serve.latencies in
  let metrics =
    [
      ("goodput_per_s", "1/s", median acc.Pb_serve.era_goodput);
      ("p50_ms", "ms", median (per_era 0.50));
      ("p99_ms", "ms", median (per_era 0.99));
      ("recover_s", "s", median acc.Pb_serve.recovers);
      ("setup_s", "s", median acc.Pb_serve.setups);
      ("peak_rss_mb", "MB", median acc.Pb_serve.rss_mb);
      ("journal_bytes_per_write_byte", "ratio", median acc.Pb_serve.jratio);
    ]
  in
  Printf.printf "workload %s: %d eras, %.2f s timed, %d attempted, %d failed, %d restarts\n" name
    acc.Pb_serve.eras acc.Pb_serve.timed_s acc.Pb_serve.attempted acc.Pb_serve.failed
    (List.length acc.Pb_serve.recovers);
  Printf.printf "  per-era goodput: %s\n"
    (String.concat " " (List.rev_map (Printf.sprintf "%.1f") acc.Pb_serve.era_goodput));
  Printf.printf "  per-era p50/p99 ms: %s\n"
    (String.concat " "
       (List.rev_map
          (fun l -> Printf.sprintf "%.3f/%.3f" (1e3 *. Pb_serve.percentile l 0.5) (1e3 *. Pb_serve.percentile l 0.99))
          acc.Pb_serve.latencies));
  let oc = open_out (Filename.concat logdir "errors.txt") in
  Hashtbl.iter
    (fun e n ->
      Printf.printf "  failed %d x: %s\n" n e;
      Printf.fprintf oc "%d\t%s\n" n e)
    acc.Pb_serve.errors;
  close_out oc;
  List.iter (fun (m, u, v) -> Printf.printf "  %-30s %14.4f %s\n" m v u) metrics;
  (acc.Pb_serve.attempted, acc.Pb_serve.failed, metrics)

let traced ~calq ~tmp ~logdir ~seed ~seconds ~name =
  let counts, metrics = Pb_traced.run ~calq ~tmp ~logdir ~seed ~seconds ~name in
  Printf.printf "traced %s: %d attempted, %d failed; spans in %s\n" name counts.Pb_traced.attempted
    counts.Pb_traced.failed (Filename.concat logdir "spans.jsonl");
  List.iter (fun (m, u, v) -> Printf.printf "  %-38s %14.4f %s\n" m v u) metrics;
  Printf.printf "  self time by span (s):\n";
  List.iter
    (fun (n, k, t) -> Printf.printf "    %-28s %8d spans %10.4f s\n" n k t)
    (Pb_trace.self_by_name ());
  (counts.Pb_traced.attempted, counts.Pb_traced.failed, metrics)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 and calq = ref "" in
  let selfcheck = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S seconds to measure");
      ("--trace", Arg.Set_int trace, "0|1 served run (0) or traced in-process run (1)");
      ("--calq", Arg.Set_string calq, "PATH the calq executable to serve with");
    ]
    (function "selfcheck" -> selfcheck := true | a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1 --calq PATH | selfcheck";
  let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 1) fmt in
  (try Pb_work.selfcheck () with Failure e -> fail "oracle self-check failed: %s" e);
  if !selfcheck then begin
    print_endline "oracle self-check passed";
    exit 0
  end;
  if not (List.mem !workload Pb_work.names) then
    fail "unknown workload %S (one of %s)" !workload (String.concat ", " Pb_work.names);
  if !calq = "" || not (Sys.file_exists !calq) then fail "calq executable not found: %S" !calq;
  let pid = Unix.getpid () in
  let logdir =
    Printf.sprintf "perfbench/_runs/%s-s%d-t%d-%d" !workload !seed !trace pid
  in
  let tmp = Printf.sprintf "perfbench/_tmp/%d" pid in
  mkdir_p logdir;
  rm_rf tmp;
  mkdir_p tmp;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let outcome =
    try
      let run = if !trace = 1 then traced else served in
      let attempted, failed, metrics =
        run ~calq:!calq ~tmp ~logdir ~seed:!seed ~seconds:!seconds ~name:!workload
      in
      `Done (attempted, failed, metrics)
    with
    | Pb_work.Wrong_answer why -> `Wrong why
    | e -> `Broken (Printexc.to_string e)
  in
  rm_rf tmp;
  (try Unix.rmdir "perfbench/_tmp" with Unix.Unix_error _ -> ());
  match outcome with
  | `Done (attempted, failed, metrics) ->
    Printf.printf "run directory: %s\n" logdir;
    print_result ~correct:true ~attempted ~failed metrics
  | `Wrong why ->
    Printf.printf "WRONG ANSWER: %s\n" why;
    print_result ~correct:false ~attempted:1 ~failed:0 [];
    exit 1
  | `Broken why -> fail "run failed: %s (logs in %s)" why logdir
