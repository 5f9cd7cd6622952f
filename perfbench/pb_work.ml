(* The three workloads: seeded request generators, the row model each
   request's expected answer comes from, and the reply checks.

   Everything here is the benchmark's own code. Expected answers come
   from [Pb_date] and from a model of every generated row, never from
   the program under test. A workload is a set of connection streams:
   each stream yields whole rounds of requests with a fixed mix, so the
   share of requests that fail on the one known fault is the same in
   every run. *)

(* --- deterministic values ---------------------------------------------- *)

let mix a b c =
  let h = ref ((a * 0x2545F491) lxor (b * 0x9E3779B9) lxor (c * 0x632BE5AB)) in
  h := !h lxor (!h lsr 31);
  h := !h * 0x7FB5D329728EA185;
  h := !h lxor (!h lsr 27);
  h := !h * 0x1B873593;
  h := !h lxor (!h lsr 33);
  !h land max_int

let rng seed tag = Random.State.make [| seed; tag; 0x5eed |]

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* --- requests and their checks ----------------------------------------- *)

type expect =
  | Agg of int * int  (** one row [n|s] *)
  | Applied of int  (** a write batch of that many statements, none failed *)
  | Advanced  (** [advance 1] *)

(* [sum] crosses the wire as a float printed with six significant digits,
   so only sums below 10^6 read back exactly: the generated values are
   kept small enough, and this guard says so if they ever are not. *)
let exact_limit = 1_000_000

let agg (n, s) =
  if s >= exact_limit then failwith (Printf.sprintf "expected sum %d would not read back exactly" s);
  Agg (n, s)

type kind = Read_on | Read_range | Read_point | Write | Day | Known_fault

type req = {
  line : string;
  expect : expect;
  kind : kind;
  shape : Pb_date.shape option;  (** the [on] calendar of a calendar read *)
}

let is_write r = match r.kind with Write | Day -> true | _ -> false

(* A reply is the list of payload lines after [ok n] (unescaped), or the
   text of a request-level [err]. *)
type reply = Ok_lines of string list | Err of string

let parse_agg lines =
  match lines with
  | [ header; row ] when String.length header > 0 && header.[0] = '#' -> (
    match String.split_on_char '|' row with
    | [ n; s ] -> (
      match (int_of_string_opt n, int_of_string_opt s) with
      | Some n, Some s -> Some (n, s)
      | _ -> None)
    | _ -> None)
  | _ -> None

(* [Ok ()] when the reply is the expected answer; [Error why] for a
   failed request (an [err] reply or a failed statement); raises
   [Wrong_answer] when the program answered but answered wrongly. *)
exception Wrong_answer of string

let check req reply =
  let wrong fmt = Printf.ksprintf (fun s -> raise (Wrong_answer s)) fmt in
  match reply with
  | Err e -> Error e
  | Ok_lines lines -> (
    match List.find_opt (fun l -> String.length l >= 4 && String.sub l 0 4 = "err ") lines with
    | Some e -> Error e
    | None -> (
      match req.expect with
      | Agg (n, s) -> (
        match parse_agg lines with
        | Some (n', s') when n' = n && s' = s -> Ok ()
        | Some (n', s') -> wrong "%s: got %d|%d, expected %d|%d" req.line n' s' n s
        | None -> wrong "%s: unreadable reply %s" req.line (String.concat " / " lines))
      | Applied k ->
        let results = List.filter (fun l -> l <> "--") lines in
        if List.length results = k && List.for_all (fun l -> String.length l > 9 && String.sub l 0 9 = "affected ") results
        then Ok ()
        else wrong "%s: unexpected write reply %s" req.line (String.concat " / " lines)
      | Advanced ->
        if lines = [ "msg advanced 1 day" ] then Ok ()
        else wrong "%s: unexpected reply %s" req.line (String.concat " / " lines)))

(* --- workloads ---------------------------------------------------------- *)

type t = {
  name : string;
  conns : int;  (** connections in the timed phase *)
  setup : string list;  (** request lines on one connection: schema, bulk load, rules *)
  next : int -> req;  (** the next request of connection [c]'s stream *)
  round : int;  (** requests per round, per connection *)
  warm_rounds : int;  (** per connection, untimed, after [setup] *)
  era_rounds : int;  (** timed rounds per connection in one era *)
  final : unit -> req list;  (** end-of-era checks, after the timed phase *)
  rules : (string * Pb_date.shape) list;  (** calendar rules, by name *)
  fired_days : unit -> int * int;  (** inclusive day range the clock swept *)
}

let names = [ "calendar-reads"; "ledger-writes"; "dbcron-years" ]

let chunk n l =
  let rec go acc cur k = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest -> if k = n then go (List.rev cur :: acc) [ x ] 1 rest else go acc (x :: cur) (k + 1) rest
  in
  go [] [] 0 l

let bulk stmts = List.map (String.concat "; ") (chunk 250 stmts)

(* A stream of whole rounds: [make_round c] returns one round of
   connection [c]'s requests. *)
let round_stream conns make_round =
  let pending = Array.make conns [] in
  fun c ->
    (match pending.(c) with [] -> pending.(c) <- make_round c | _ -> ());
    match pending.(c) with
    | r :: rest ->
      pending.(c) <- rest;
      r
    | [] -> assert false

(* --- calendar-reads ----------------------------------------------------- *)

let cr_days = Pb_date.chronon_of_date (2000, 1, 1) - 1 (* 1990..1999 *)
let cr_rows_per_day = 5
let cr_fiscal = 650

let periodic_pool =
  List.init 7 (fun w -> Pb_date.Weekly (w + 1))
  @ List.init 28 (fun k -> Pb_date.Monthly (Some (k + 1)))
  @ [ Pb_date.Monthly None ]
  @ List.concat_map
      (fun w ->
        List.map (fun k -> Pb_date.Kth_weekday (k, w)) [ Some 1; Some 2; Some 3; Some 4; None ])
      [ 1; 2; 3; 4; 5; 6; 7 ]

let patterns = [| [ 4; 4; 5 ]; [ 4; 5; 4 ]; [ 5; 4; 4 ] |]

let random_fiscal st ~last =
  let start = 1 + Random.State.int st 28 in
  let pattern = patterns.(Random.State.int st 3) in
  let long_every = 5 + Random.State.int st 3 in
  Pb_date.Fiscal (1 + Random.State.int st 28, Pb_date.fiscal_periods ~start ~last ~pattern ~long_every)

let agg_sql table col where = Printf.sprintf "retrieve (n = count(%s), s = sum(%s)) from %s%s" col col table where

let calendar_reads seed =
  let value d j = 1 + (mix seed d j mod 9) in
  let day_sum = Array.make (cr_days + 1) 0 in
  for d = 1 to cr_days do
    for j = 1 to cr_rows_per_day do
      day_sum.(d) <- day_sum.(d) + value d j
    done
  done;
  let prefix = Array.make (cr_days + 1) 0 in
  for d = 1 to cr_days do prefix.(d) <- prefix.(d - 1) + day_sum.(d) done;
  let st = rng seed 1 in
  (* Four families, each drawn with Zipf(1) skew over its own seeded
     order, in fixed shares per round: the cost of a round does not
     depend on which shapes a seed makes hot. 721 distinct calendars in
     all, against the session's 512-entry cache. *)
  let weekly = List.filter (function Pb_date.Weekly _ -> true | _ -> false) periodic_pool
  and monthly = List.filter (function Pb_date.Monthly _ -> true | _ -> false) periodic_pool
  and kth = List.filter (function Pb_date.Kth_weekday _ -> true | _ -> false) periodic_pool in
  let fiscal = List.init cr_fiscal (fun _ -> random_fiscal st ~last:cr_days) in
  let family l =
    let pool = Array.of_list l in
    shuffle st pool;
    let w = Array.mapi (fun i _ -> 1. /. float_of_int (i + 1)) pool in
    let tot = Array.fold_left ( +. ) 0. w in
    let acc = ref 0. in
    (pool, Array.map (fun x -> acc := !acc +. (x /. tot); !acc) w)
  in
  let families = Array.map family [| weekly; monthly; kth; fiscal |] in
  let draw st f =
    let pool, cdf = families.(f) in
    let u = Random.State.float st 1. in
    let lo = ref 0 and hi = ref (Array.length cdf - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) < u then lo := mid + 1 else hi := mid
    done;
    pool.(!lo)
  in
  let on_req shape =
    let days = Pb_date.days_in shape ~lo:1 ~hi:cr_days in
    let n = cr_rows_per_day * List.length days in
    let s = List.fold_left (fun acc d -> acc + day_sum.(d)) 0 days in
    {
      line = agg_sql "obs" "v" (Printf.sprintf " on \"%s\"" (Pb_date.expr_of_shape shape));
      expect = agg (n, s);
      kind = (match shape with Pb_date.Quarters -> Known_fault | _ -> Read_on);
      shape = Some shape;
    }
  in
  let range_req st =
    (* Skewed toward recent days: a cubed uniform from the end. *)
    let u = Random.State.float st 1. in
    let a = cr_days - 10 - int_of_float (float_of_int (cr_days - 11) *. u *. u *. u) in
    let b = a + 10 in
    {
      line = agg_sql "obs" "v" (Printf.sprintf " where day >= @%d and day <= @%d" a b);
      expect = agg (cr_rows_per_day * (b - a + 1), prefix.(b) - prefix.(a - 1));
      kind = Read_range;
      shape = None;
    }
  in
  let rngs = Array.init 2 (fun c -> rng seed (100 + c)) in
  let note_day = Array.make 2 0 in
  (* One round: 38 pooled on-reads (6 weekly, 6 monthly, 6 k-th weekday,
     20 fiscal), 2 caloperate on-reads, 9 range reads and 1 append to
     [notes], in a seeded order. *)
  let make_round c =
    let st = rngs.(c) in
    let kinds =
      Array.concat
        [ Array.make 6 0; Array.make 6 1; Array.make 6 2; Array.make 20 3; Array.make 2 4; Array.make 9 5; [| 6 |] ]
    in
    shuffle st kinds;
    Array.to_list
      (Array.map
         (function
           | (0 | 1 | 2 | 3) as f -> on_req (draw st f)
           | 4 -> on_req Pb_date.Quarters
           | 5 -> range_req st
           | _ ->
             note_day.(c) <- note_day.(c) + 1;
             {
               line =
                 Printf.sprintf "append notes (day = @%d, v = %d)" ((2 * note_day.(c)) - 1 + c)
                   (value (-c) note_day.(c));
               expect = Applied 1;
               kind = Write;
               shape = None;
             })
         kinds)
  in
  let setup =
    [
      "create table obs (day chronon valid, v int)";
      "create index on obs (day)";
      "create table notes (day chronon valid, v int)";
    ]
    @ bulk
        (List.concat
           (List.init cr_days (fun i ->
                let d = i + 1 in
                List.init cr_rows_per_day (fun j ->
                    Printf.sprintf "append obs (day = @%d, v = %d)" d (value d (j + 1))))))
  in
  let final () =
    let notes_n = note_day.(0) + note_day.(1) in
    let notes_s = ref 0 in
    Array.iteri (fun c k -> for i = 1 to k do notes_s := !notes_s + value (-c) i done) note_day;
    [
      { line = agg_sql "obs" "v" ""; expect = agg (cr_rows_per_day * cr_days, prefix.(cr_days)); kind = Read_range; shape = None };
      { line = agg_sql "notes" "v" ""; expect = agg (notes_n, !notes_s); kind = Read_range; shape = None };
    ]
  in
  {
    name = "calendar-reads";
    conns = 2;
    setup;
    next = round_stream 2 make_round;
    round = 50;
    warm_rounds = 1;
    era_rounds = 16;
    final;
    rules = [];
    fired_days = (fun () -> (1, 0));
  }

(* --- ledger-writes ------------------------------------------------------ *)

let lw_days = 4096
let lw_rows_per_day = 4

let ledger_writes seed =
  let amt d j = 1 + (mix seed d j mod 9) in
  (* The row model: per day, the count and sum of its ledger rows; the
     audit table's totals. *)
  let cnt = Array.make (lw_days + 1) lw_rows_per_day in
  let sum =
    Array.init (lw_days + 1) (fun d ->
        if d = 0 then 0 else List.fold_left (fun a j -> a + amt d j) 0 (List.init lw_rows_per_day succ))
  in
  cnt.(0) <- 0;
  let audit_n = ref 0 and audit_s = ref 0 in
  let append d x =
    cnt.(d) <- cnt.(d) + 1;
    sum.(d) <- sum.(d) + x;
    incr audit_n;
    audit_s := !audit_s + x
  in
  let rngs = Array.init 2 (fun c -> rng seed (200 + c)) in
  (* Stream c owns the days d with d mod 2 = c. The served run drives
     one connection, so only stream 0 is used; a second connection over
     the other days would keep the model exact. *)
  let own st c = (2 * Random.State.int st (lw_days / 2)) + if c = 0 then 2 else 1 in
  let write st c =
    let d1 = own st c and d2 = own st c and d3 = own st c in
    let x1 = 1 + Random.State.int st 9
    and y = 1 + Random.State.int st 9
    and x3 = 1 + Random.State.int st 9 in
    append d1 x1;
    sum.(d2) <- cnt.(d2) * y;
    cnt.(d3) <- 0;
    sum.(d3) <- 0;
    append d3 x3;
    {
      line =
        Printf.sprintf
          "append ledger (day = @%d, acct = %d, amt = %d); replace ledger (amt = %d) where day = \
           @%d; delete ledger where day = @%d; append ledger (day = @%d, acct = %d, amt = %d)"
          d1 c x1 y d2 d3 d3 c x3;
      expect = Applied 4;
      kind = Write;
      shape = None;
    }
  in
  let read st c =
    let d = own st c in
    {
      line = agg_sql "ledger" "amt" (Printf.sprintf " where day = @%d" d);
      expect = agg (cnt.(d), sum.(d));
      kind = Read_point;
      shape = None;
    }
  in
  (* One round: 12 write batches and 8 point reads, in a seeded order. *)
  let make_round c =
    let st = rngs.(c) in
    let kinds = Array.append (Array.make 12 true) (Array.make 8 false) in
    shuffle st kinds;
    Array.to_list (Array.map (fun w -> if w then write st c else read st c) kinds)
  in
  let setup =
    [
      "create table ledger (day chronon valid, acct int, amt int)";
      "create index on ledger (day)";
      "create table audit (day chronon valid, amt int)";
    ]
    @ bulk
        (List.concat
           (List.init lw_days (fun i ->
                let d = i + 1 in
                List.init lw_rows_per_day (fun j ->
                    Printf.sprintf "append ledger (day = @%d, acct = %d, amt = %d)" d j (amt d (j + 1))))))
    @ [ "define rule audit_append on append to ledger do append audit (day = NEW.day, amt = NEW.amt)" ]
  in
  let final () =
    let n = Array.fold_left ( + ) 0 cnt and s = Array.fold_left ( + ) 0 sum in
    [
      { line = agg_sql "ledger" "amt" ""; expect = agg (n, s); kind = Read_range; shape = None };
      { line = agg_sql "audit" "amt" ""; expect = agg (!audit_n, !audit_s); kind = Read_range; shape = None };
    ]
  in
  {
    name = "ledger-writes";
    conns = 1;
    setup;
    next = round_stream 2 make_round;
    round = 20;
    warm_rounds = 25;
    era_rounds = 1500;
    final;
    rules = [];
    fired_days = (fun () -> (1, 0));
  }

(* --- dbcron-years ------------------------------------------------------- *)

let db_years = 4
let db_days = Pb_date.chronon_of_date (1990 + db_years, 1, 1) - 1
let db_periodic = 210
let db_fiscal = 90
let db_warm_days = 28

let dbcron_years seed =
  let st = rng seed 3 in
  let nth4 () = if Random.State.int st 5 = 4 then None else Some (1 + Random.State.int st 4) in
  (* A third each of weekly, monthly and k-th weekday shapes. *)
  let periodic i =
    match i mod 3 with
    | 0 -> Pb_date.Weekly (1 + Random.State.int st 7)
    | 1 -> Pb_date.Monthly (if Random.State.int st 10 = 0 then None else Some (1 + Random.State.int st 28))
    | _ -> Pb_date.Kth_weekday (nth4 (), 1 + Random.State.int st 7)
  in
  (* One fiscal year's closing schedule: the first day of each of its
     twelve periods, for a year starting somewhere in the era. *)
  let fiscal_year () =
    let start = 1 + Random.State.int st (db_days - 364) in
    let pattern = patterns.(Random.State.int st 3) in
    let periods = Pb_date.fiscal_periods ~start ~last:start ~pattern ~long_every:0 in
    Pb_date.Fiscal (1, periods)
  in
  let shapes =
    Array.init (db_periodic + db_fiscal) (fun i ->
        if i < db_periodic then periodic i else fiscal_year ())
  in
  shuffle st shapes;
  let rules = Array.to_list (Array.mapi (fun i s -> (Printf.sprintf "r%d" i, s)) shapes) in
  let setup =
    "create table log (rname text, k int)"
    :: List.map
         (fun (name, shape) ->
           (* Rules of one family share their action, so same-day firings
              of a family can run as one prepared batch. *)
           Printf.sprintf "define rule %s on calendar \"%s\" do append log (rname = '%s', k = 1)" name
             (Pb_date.expr_of_shape shape) (Pb_date.family shape))
         rules
  in
  let days = ref 0 in
  let next _ =
    incr days;
    { line = "advance 1"; expect = Advanced; kind = Day; shape = None }
  in
  {
    name = "dbcron-years";
    conns = 1;
    setup;
    next;
    round = 1;
    warm_rounds = db_warm_days;
    era_rounds = db_days - db_warm_days;
    final = (fun () -> []);
    rules;
    (* The clock starts at day 1's midnight; rules fire at day starts
       strictly after it, through the last day reached. *)
    fired_days = (fun () -> (2, !days + 1));
  }

let make name seed =
  match name with
  | "calendar-reads" -> calendar_reads seed
  | "ledger-writes" -> ledger_writes seed
  | "dbcron-years" -> dbcron_years seed
  | _ -> invalid_arg ("unknown workload " ^ name)

(* Per-rule firing counts the date oracle expects over the swept days. *)
let expected_firings t =
  let lo, hi = t.fired_days () in
  List.map (fun (name, shape) -> (name, List.length (Pb_date.days_in shape ~lo ~hi))) t.rules

(* Every firing [(rule, instant)] lies at a day start on its rule's
   calendar within the swept days, and each rule fired exactly as often
   as the date oracle says. *)
let check_firings t firings =
  let lo, hi = t.fired_days () in
  let shapes = Hashtbl.create 512 and counts = Hashtbl.create 512 in
  List.iter (fun (n, s) -> Hashtbl.replace shapes n s) t.rules;
  List.iter
    (fun (rule, at) ->
      let day = Pb_date.chronon_of_instant at in
      (match Hashtbl.find_opt shapes rule with
      | Some shape when at mod 86400 = 0 && day >= lo && day <= hi && Pb_date.mem shape day -> ()
      | Some shape ->
        raise (Wrong_answer (Printf.sprintf "rule %s fired at %d, not on %s" rule at (Pb_date.expr_of_shape shape)))
      | None -> raise (Wrong_answer ("firing of an unknown rule " ^ rule)));
      Hashtbl.replace counts rule (1 + Option.value ~default:0 (Hashtbl.find_opt counts rule)))
    firings;
  List.iter2
    (fun (name, want) (_, shape) ->
      let got = Option.value ~default:0 (Hashtbl.find_opt counts name) in
      if got <> want then
        raise
          (Wrong_answer
             (Printf.sprintf "rule %s (%s) fired %d times, expected %d" name (Pb_date.expr_of_shape shape) got want)))
    (expected_firings t) t.rules

(* The same, summed per rule family: what the log table should hold. *)
let expected_family_counts t =
  let tot = Hashtbl.create 8 in
  List.iter2
    (fun (_, n) (_, shape) ->
      let f = Pb_date.family shape in
      Hashtbl.replace tot f (n + Option.value ~default:0 (Hashtbl.find_opt tot f)))
    (expected_firings t) t.rules;
  List.sort compare (Hashtbl.fold (fun f n acc -> (f, n) :: acc) tot [])

let selfcheck () =
  Pb_date.selfcheck ();
  (* The row models against a direct recount. *)
  let t = calendar_reads 7 in
  (match (List.hd (t.final ())).expect with
  | Agg (n, _) when n = cr_days * cr_rows_per_day -> ()
  | _ -> failwith "row model: obs count");
  let r = { line = ""; expect = Agg (1, 2); kind = Read_on; shape = None } in
  (match check r (Ok_lines [ "# n|s"; "1|2" ]) with Ok () -> () | Error e -> failwith e);
  (match check r (Err "x") with Error _ -> () | Ok () -> failwith "check: err must fail");
  match check r (Ok_lines [ "# n|s"; "1|3" ]) with
  | exception Wrong_answer _ -> ()
  | _ -> failwith "check: a wrong sum must be caught"
