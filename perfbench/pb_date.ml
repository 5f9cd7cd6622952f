(* The benchmark's own civil-date arithmetic: the oracle every expected
   answer is computed from. It shares no code with lib/ (no Civil, no
   Unit_system), so a fault in the program's date handling cannot hide
   in the expected values.

   Day chronon [c >= 1] is the date [epoch + (c - 1)] days, the
   convention of the served store (chronon 0 does not exist). The
   benchmark always serves with epoch 1990-01-01, a Monday, so the
   store's Monday-anchored weeks start on chronons 1, 8, 15, ... *)

let epoch = (1990, 1, 1)
let epoch_string = "1990-01-01"

(* Days since 1970-01-01 of a proleptic Gregorian date (era-based). *)
let days_from_civil (y, m, d) =
  let y = if m <= 2 then y - 1 else y in
  let era = (if y >= 0 then y else y - 399) / 400 in
  let yoe = y - (era * 400) in
  let mp = (m + 9) mod 12 in
  let doy = ((153 * mp) + 2) / 5 + d - 1 in
  let doe = (yoe * 365) + (yoe / 4) - (yoe / 100) + doy in
  (era * 146097) + doe - 719468

let civil_from_days z =
  let z = z + 719468 in
  let era = (if z >= 0 then z else z - 146096) / 146097 in
  let doe = z - (era * 146097) in
  let yoe = (doe - (doe / 1460) + (doe / 36524) - (doe / 146096)) / 365 in
  let doy = doe - ((365 * yoe) + (yoe / 4) - (yoe / 100)) in
  let mp = ((5 * doy) + 2) / 153 in
  let d = doy - (((153 * mp) + 2) / 5) + 1 in
  let m = if mp < 10 then mp + 3 else mp - 9 in
  let y = yoe + (era * 400) + if m <= 2 then 1 else 0 in
  (y, m, d)

let is_leap y = (y mod 4 = 0 && y mod 100 <> 0) || y mod 400 = 0

let month_length y m =
  match m with
  | 2 -> if is_leap y then 29 else 28
  | 4 | 6 | 9 | 11 -> 30
  | _ -> 31

let epoch_days = days_from_civil epoch
let date_of_chronon c = civil_from_days (epoch_days + c - 1)
let chronon_of_date d = days_from_civil d - epoch_days + 1

(* ISO weekday, 1 = Monday .. 7 = Sunday. 1970-01-01 was a Thursday. *)
let weekday_of_date d =
  let z = days_from_civil d in
  (((z + 3) mod 7) + 7) mod 7 + 1

let weekday c = weekday_of_date (date_of_chronon c)

(* Start instant (seconds since the epoch's midnight) of day chronon c,
   and back. *)
let instant_of_chronon c = (c - 1) * 86400

let chronon_of_instant i = (i / 86400) + 1

(* --- the calendar shapes the workloads draw ---------------------------- *)

(* [Weekly w]: [w]/DAYS:during:WEEKS, weekday w of each week.
   [Monthly (Some k)]: the k-th day of each month; [None] the last.
   [Kth_weekday (Some k, w)]: the k-th weekday w of each month; [None]
   the last.
   [Fiscal (k, periods)]: the k-th day of each listed period, periods
   given as inclusive chronon pairs — an interval-list literal.
   [Quarters]: caloperate(MONTHS; 3), every day it covers. *)
type shape =
  | Weekly of int
  | Monthly of int option
  | Kth_weekday of int option * int
  | Fiscal of int * (int * int) array
  | Quarters

let nth_text = function Some k -> string_of_int k | None -> "n"

let expr_of_shape = function
  | Weekly w -> Printf.sprintf "[%d]/DAYS:during:WEEKS" w
  | Monthly k -> Printf.sprintf "[%s]/DAYS:during:MONTHS" (nth_text k)
  | Kth_weekday (k, w) -> Printf.sprintf "[%s]/([%d]/DAYS:during:WEEKS):during:MONTHS" (nth_text k) w
  | Fiscal (k, periods) ->
    Printf.sprintf "[%d]/DAYS:during:{%s}" k
      (String.concat ","
         (Array.to_list (Array.map (fun (a, b) -> Printf.sprintf "(%d,%d)" a b) periods)))
  | Quarters -> "caloperate(MONTHS; 3)"

let family = function
  | Weekly _ -> "weekly"
  | Monthly _ -> "monthly"
  | Kth_weekday _ -> "kth_weekday"
  | Fiscal _ -> "fiscal"
  | Quarters -> "quarters"

(* Does day chronon [c] belong to the shape? *)
let mem shape c =
  let ((y, m, d) as date) = date_of_chronon c in
  match shape with
  | Weekly w -> weekday_of_date date = w
  | Monthly (Some k) -> d = k
  | Monthly None -> d = month_length y m
  | Kth_weekday (Some k, w) -> weekday_of_date date = w && (d - 1) / 7 = k - 1
  | Kth_weekday (None, w) -> weekday_of_date date = w && d + 7 > month_length y m
  | Fiscal (k, periods) ->
    Array.exists (fun (a, b) -> c = a + k - 1 && c <= b) periods
  | Quarters -> true

(* The chronons of [lo, hi] in the shape, ascending. Fiscal shapes are
   read straight off their periods. *)
let days_in shape ~lo ~hi =
  match shape with
  | Fiscal (k, periods) ->
    Array.fold_right
      (fun (a, b) acc ->
        let c = a + k - 1 in
        if c <= b && c >= lo && c <= hi then c :: acc else acc)
      periods []
  | _ ->
    let rec go c acc = if c < lo then acc else go (c - 1) (if mem shape c then c :: acc else acc) in
    go hi []

(* Consecutive fiscal periods from chronon [start] through [last]: each
   fiscal year is four quarters of three periods whose lengths in weeks
   follow [pattern] (4-4-5, 4-5-4 or 5-4-4); every [long_every]-th year
   adds a 53rd week to its final period. *)
let fiscal_periods ~start ~last ~pattern ~long_every =
  let acc = ref [] and c = ref start and year = ref 0 in
  while !c <= last do
    for q = 0 to 3 do
      List.iteri
        (fun i weeks ->
          let weeks =
            if q = 3 && i = 2 && long_every > 0 && (!year + 1) mod long_every = 0 then weeks + 1
            else weeks
          in
          let a = !c and b = !c + (7 * weeks) - 1 in
          acc := (a, b) :: !acc;
          c := b + 1)
        pattern
    done;
    incr year
  done;
  Array.of_list (List.rev !acc)

(* --- self-check against fixed dates ------------------------------------ *)

let selfcheck () =
  let fail fmt = Printf.ksprintf (fun s -> failwith ("date oracle: " ^ s)) fmt in
  let expect_wd d w name =
    if weekday_of_date d <> w then fail "%s is not weekday %d" name w
  in
  expect_wd (1990, 1, 1) 1 "1990-01-01 (Monday)";
  expect_wd (1993, 1, 15) 5 "1993-01-15 (Friday)";
  expect_wd (2000, 1, 1) 6 "2000-01-01 (Saturday)";
  expect_wd (1970, 1, 1) 4 "1970-01-01 (Thursday)";
  if month_length 1992 2 <> 29 then fail "1992-02-29 must exist";
  if month_length 1990 2 <> 28 then fail "1990 is not a leap year";
  if month_length 1900 2 <> 28 then fail "1900 is not a leap year";
  if month_length 2000 2 <> 29 then fail "2000 is a leap year";
  if chronon_of_date epoch <> 1 then fail "the epoch is chronon 1";
  if chronon_of_date (1990, 2, 1) <> 32 then fail "1990-02-01 is chronon 32";
  if chronon_of_date (1991, 1, 1) <> 366 then fail "1991-01-01 is chronon 366";
  if date_of_chronon 790 <> (1992, 2, 29) then fail "chronon 790 is 1992-02-29";
  (* Round trip and successor over 60 years. *)
  let prev = ref (date_of_chronon 0) in
  for c = 1 to 366 * 60 do
    let ((y, m, d) as date) = date_of_chronon c in
    if chronon_of_date date <> c then fail "round trip at chronon %d" c;
    if d < 1 || d > month_length y m then fail "bad day at chronon %d" c;
    if weekday c <> ((c - 1) mod 7) + 1 then fail "weekday drift at chronon %d" c;
    let py, pm, pd = !prev in
    let next_of_prev =
      if pd < month_length py pm then (py, pm, pd + 1)
      else if pm < 12 then (py, pm + 1, 1)
      else (py + 1, 1, 1)
    in
    if next_of_prev <> date then fail "successor at chronon %d" c;
    prev := date
  done;
  (* Shapes against hand-checked days of 1990. *)
  let expect shape lo hi want =
    if days_in shape ~lo ~hi <> want then
      fail "%s over [%d,%d]" (expr_of_shape shape) lo hi
  in
  expect (Weekly 1) 1 15 [ 1; 8; 15 ];
  expect (Monthly (Some 3)) 1 62 [ 3; 34; 62 ];
  expect (Monthly None) 1 60 [ 31; 59 ];
  expect (Kth_weekday (Some 2, 1)) 1 59 [ 8; 43 ] (* Jan 8, Feb 12 *);
  expect (Kth_weekday (None, 5)) 1 59 [ 26; 54 ] (* Jan 26, Feb 23 *);
  let periods = fiscal_periods ~start:1 ~last:400 ~pattern:[ 4; 4; 5 ] ~long_every:1 in
  if Array.sub periods 0 3 <> [| (1, 28); (29, 56); (57, 91) |] then fail "4-4-5 periods";
  if snd periods.(11) - fst periods.(0) + 1 <> 371 then fail "53-week fiscal year";
  expect (Fiscal (3, periods)) 1 91 [ 3; 31; 59 ];
  expect (Fiscal (30, periods)) 1 91 [ 86 ]
