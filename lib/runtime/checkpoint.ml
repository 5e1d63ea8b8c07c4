module Tm = Ic_traffic.Tm

let magic = "ic-runtime-checkpoint v1"

(* Floats travel as the hex of their bit pattern: exact, NaN-safe. *)
let hex_of_float f = Printf.sprintf "%016Lx" (Int64.bits_of_float f)

(* Counter names are caller-chosen strings but counter records are
   whitespace-split lines, so any byte that could split or terminate the
   record ('%' itself included, as the escape introducer) travels
   percent-encoded. The empty name — which would vanish entirely under
   [words] — is a lone "%". Legacy checkpoints never contain '%' in a
   name, so unescaping is the identity on them. *)
let escape_counter_name name =
  if name = "" then "%"
  else if
    not
      (String.exists
         (fun c -> c = '%' || c = ' ' || c = '\t' || c = '\n' || c = '\r')
         name)
  then name
  else begin
    let buf = Buffer.create (String.length name + 8) in
    String.iter
      (fun c ->
        match c with
        | '%' | ' ' | '\t' | '\n' | '\r' ->
            Buffer.add_string buf (Printf.sprintf "%%%02x" (Char.code c))
        | c -> Buffer.add_char buf c)
      name;
    Buffer.contents buf
  end

let encode_floats buf vec =
  Array.iter
    (fun v ->
      Buffer.add_char buf ' ';
      Buffer.add_string buf (hex_of_float v))
    vec

let encode (s : Engine.snapshot) =
  let buf = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun l -> Buffer.add_string buf l; Buffer.add_char buf '\n') fmt in
  line "%s" magic;
  line "bin %d" s.s_bin;
  line "f %s" (hex_of_float s.s_f);
  (match s.s_preference with
  | None -> line "preference none"
  | Some p ->
      Buffer.add_string buf (Printf.sprintf "preference %d" (Array.length p));
      encode_floats buf p;
      Buffer.add_char buf '\n');
  if s.s_fit_age = max_int then line "fit_age never"
  else line "fit_age %d" s.s_fit_age;
  line "level %d" (Degrade.rank s.s_degrade.Degrade.s_level);
  line "streak %d" s.s_degrade.Degrade.s_streak;
  (* Two counts: retained history length and exact lifetime total (the
     retention cap can have dropped the difference). Legacy decoders never
     see this file; our decoder accepts the legacy single-count form. *)
  line "transitions %d %d"
    (List.length s.s_degrade.Degrade.s_transitions)
    s.s_degrade.Degrade.s_count;
  List.iter
    (fun (tr : Degrade.transition) ->
      line "t %d %d %d %s" tr.bin (Degrade.rank tr.from_) (Degrade.rank tr.to_)
        (Degrade.reason_name tr.reason))
    s.s_degrade.Degrade.s_transitions;
  let n = if Array.length s.s_window = 0 then 0 else Tm.size s.s_window.(0) in
  line "window %d %d" (Array.length s.s_window) n;
  Array.iter
    (fun tm ->
      Buffer.add_string buf "tm";
      encode_floats buf (Tm.unsafe_data tm);
      Buffer.add_char buf '\n')
    s.s_window;
  Buffer.add_string buf
    (Printf.sprintf "last_loads %d" (Array.length s.s_last_loads));
  encode_floats buf s.s_last_loads;
  Buffer.add_char buf '\n';
  line "have_last %d" (if s.s_have_last then 1 else 0);
  Buffer.add_string buf
    (Printf.sprintf "consec %d" (Array.length s.s_consec_missing));
  Array.iter
    (fun c -> Buffer.add_string buf (Printf.sprintf " %d" c))
    s.s_consec_missing;
  Buffer.add_char buf '\n';
  (match s.s_frozen with
  | None -> line "frozen none"
  | Some (lvl, w) ->
      Buffer.add_string buf
        (Printf.sprintf "frozen %d %d" (Degrade.rank lvl) (Array.length w));
      encode_floats buf w;
      Buffer.add_char buf '\n');
  Buffer.add_string buf
    (Printf.sprintf "quarantine %d %d" s.s_quarantine_streak
       (Array.length s.s_quarantine));
  Array.iter
    (fun q -> Buffer.add_string buf (if q then " 1" else " 0"))
    s.s_quarantine;
  Buffer.add_char buf '\n';
  if s.s_epoch_due = max_int then line "epoch %d never" s.s_epoch_bin
  else line "epoch %d %d" s.s_epoch_bin s.s_epoch_due;
  (* The refit incumbent's error, only once the engine has refitted:
     checkpoints taken before the first refit keep their bytes. *)
  Option.iter (fun e -> line "fit_error %s" (hex_of_float e)) s.s_fit_error;
  (* A refit the snapshot ran to its end ahead of its slices, with the bin
     it takes effect at; only while one is pending, so other checkpoints
     keep their bytes. *)
  Option.iter
    (fun (r : Engine.refit_result) ->
      Buffer.add_string buf
        (Printf.sprintf "refit %d %d %d %s %s %d" r.r_at
           (if r.r_epoch then 1 else 0)
           (if r.r_both_basins then 1 else 0)
           (hex_of_float r.r_f) (hex_of_float r.r_mean_error)
           (Array.length r.r_preference));
      encode_floats buf r.r_preference;
      Buffer.add_char buf '\n')
    s.s_refit;
  (* Plugged-in estimator state: one header naming the owning estimator
     (caller-chosen, so percent-escaped like counter names) and its slab
     count, then one record per slab in insertion order. Emitted only when
     present — the native ic path writes byte-identical files to PR 9. *)
  (match s.s_estimator with
  | None -> ()
  | Some st ->
      let slabs = Ic_estimation.Estimator.state_slabs st in
      line "estimator %s %d"
        (escape_counter_name (Ic_estimation.Estimator.state_owner st))
        (List.length slabs);
      List.iter
        (fun (name, payload) ->
          Buffer.add_string buf
            (Printf.sprintf "slab %s %d" (escape_counter_name name)
               (Array.length payload));
          encode_floats buf payload;
          Buffer.add_char buf '\n')
        slabs);
  line "counters %d" (List.length s.s_counters);
  List.iter
    (fun (name, v) -> line "c %s %d" (escape_counter_name name) v)
    s.s_counters;
  line "end";
  Buffer.contents buf

(* --- decoding ----------------------------------------------------------- *)

exception Bad of string

let reason_of_name name =
  let all =
    [
      Degrade.Warmup;
      Degrade.Fit_stale;
      Degrade.Polls_missing;
      Degrade.Imputation_exhausted;
      Degrade.F_degenerate;
      Degrade.Topology_change;
      Degrade.Epoch_refit;
      Degrade.Recovered;
    ]
  in
  match List.find_opt (fun r -> Degrade.reason_name r = name) all with
  | Some r -> r
  | None -> raise (Bad ("unknown transition reason " ^ name))

type cursor = { lines : string array; mutable pos : int }

let next_line cur =
  if cur.pos >= Array.length cur.lines then raise (Bad "truncated checkpoint");
  let l = cur.lines.(cur.pos) in
  cur.pos <- cur.pos + 1;
  l

let words l = String.split_on_char ' ' l |> List.filter (fun w -> w <> "")

let expect_key key tokens =
  match tokens with
  | k :: rest when k = key -> rest
  | _ -> raise (Bad ("expected '" ^ key ^ "' record"))

let parse_int w =
  match int_of_string_opt w with
  | Some v -> v
  | None -> raise (Bad ("bad integer " ^ w))

let hex_digit w c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> raise (Bad ("bad hex field " ^ w))

let parse_float_hex w =
  (* Hand-rolled rather than [Int64.of_string ("0x" ^ w)]: that parser
     accepts '_' separators, which encode never emits. *)
  if String.length w <> 16 then raise (Bad ("bad float field " ^ w));
  let bits = ref 0L in
  String.iter
    (fun c ->
      bits := Int64.logor (Int64.shift_left !bits 4) (Int64.of_int (hex_digit w c)))
    w;
  Int64.float_of_bits !bits

let unescape_counter_name w =
  if w = "%" then ""
  else if not (String.contains w '%') then w
  else begin
    let n = String.length w in
    let buf = Buffer.create n in
    let i = ref 0 in
    while !i < n do
      (if w.[!i] <> '%' then begin
         Buffer.add_char buf w.[!i];
         incr i
       end
       else begin
         if !i + 2 >= n then raise (Bad ("bad counter name " ^ w));
         Buffer.add_char buf
           (Char.chr ((hex_digit w w.[!i + 1] * 16) + hex_digit w w.[!i + 2]));
         i := !i + 3
       end)
    done;
    Buffer.contents buf
  end

let parse_floats count rest =
  if List.length rest <> count then raise (Bad "float vector length mismatch");
  Array.of_list (List.map parse_float_hex rest)

let decode_exn text =
  let cur =
    { lines = Array.of_list (String.split_on_char '\n' text); pos = 0 }
  in
  if next_line cur <> magic then raise (Bad "not an ic-runtime checkpoint");
  let s_bin =
    match expect_key "bin" (words (next_line cur)) with
    | [ v ] -> parse_int v
    | _ -> raise (Bad "bad bin record")
  in
  let s_f =
    match expect_key "f" (words (next_line cur)) with
    | [ v ] -> parse_float_hex v
    | _ -> raise (Bad "bad f record")
  in
  let s_preference =
    match expect_key "preference" (words (next_line cur)) with
    | [ "none" ] -> None
    | count :: rest -> Some (parse_floats (parse_int count) rest)
    | [] -> raise (Bad "bad preference record")
  in
  let s_fit_age =
    match expect_key "fit_age" (words (next_line cur)) with
    | [ "never" ] -> max_int
    | [ v ] -> parse_int v
    | _ -> raise (Bad "bad fit_age record")
  in
  let s_level =
    match expect_key "level" (words (next_line cur)) with
    | [ v ] -> Degrade.level_of_rank (parse_int v)
    | _ -> raise (Bad "bad level record")
  in
  let s_streak =
    match expect_key "streak" (words (next_line cur)) with
    | [ v ] -> parse_int v
    | _ -> raise (Bad "bad streak record")
  in
  (* Retained-history length plus exact lifetime total; a legacy
     single-count record predates the retention cap, so both were equal. *)
  let n_transitions, s_count =
    match expect_key "transitions" (words (next_line cur)) with
    | [ v ] ->
        let v = parse_int v in
        (v, v)
    | [ stored; total ] -> (parse_int stored, parse_int total)
    | _ -> raise (Bad "bad transitions record")
  in
  if n_transitions < 0 then raise (Bad "negative transition count");
  if s_count < n_transitions then
    raise (Bad "transition total below retained history");
  let s_transitions =
    List.init n_transitions (fun _ ->
        match expect_key "t" (words (next_line cur)) with
        | [ bin; from_; to_; reason ] ->
            {
              Degrade.bin = parse_int bin;
              from_ = Degrade.level_of_rank (parse_int from_);
              to_ = Degrade.level_of_rank (parse_int to_);
              reason = reason_of_name reason;
            }
        | _ -> raise (Bad "bad transition record"))
  in
  let window_len, tm_n =
    match expect_key "window" (words (next_line cur)) with
    | [ count; n ] -> (parse_int count, parse_int n)
    | _ -> raise (Bad "bad window record")
  in
  if window_len < 0 then raise (Bad "negative window length");
  let s_window =
    Array.init window_len (fun _ ->
        let rest = expect_key "tm" (words (next_line cur)) in
        if tm_n <= 0 then raise (Bad "window entries with zero TM size");
        Tm.of_vector_clamped tm_n (parse_floats (tm_n * tm_n) rest))
  in
  let s_last_loads =
    match expect_key "last_loads" (words (next_line cur)) with
    | count :: rest -> parse_floats (parse_int count) rest
    | [] -> raise (Bad "bad last_loads record")
  in
  let s_have_last =
    match expect_key "have_last" (words (next_line cur)) with
    | [ "0" ] -> false
    | [ "1" ] -> true
    | _ -> raise (Bad "bad have_last record")
  in
  let s_consec_missing =
    match expect_key "consec" (words (next_line cur)) with
    | count :: rest ->
        let count = parse_int count in
        if List.length rest <> count then
          raise (Bad "consec vector length mismatch");
        Array.of_list (List.map parse_int rest)
    | [] -> raise (Bad "bad consec record")
  in
  (* v1 checkpoints written before the fast path carry no frozen record;
     peek and treat its absence as "unfrozen" so they keep loading. *)
  let s_frozen =
    match words (next_line cur) with
    | "frozen" :: rest -> begin
        match rest with
        | [ "none" ] -> None
        | rank :: count :: floats ->
            let lvl =
              match Degrade.level_of_rank (parse_int rank) with
              | lvl -> lvl
              | exception Invalid_argument _ ->
                  raise (Bad ("bad frozen level rank " ^ rank))
            in
            Some (lvl, parse_floats (parse_int count) floats)
        | _ -> raise (Bad "bad frozen record")
      end
    | _ ->
        cur.pos <- cur.pos - 1;
        None
  in
  (* Resilience records (quarantine flags, epoch-refit schedule) postdate
     v1 like [frozen]; peek and default when absent so legacy checkpoints
     keep loading with the gate quiescent. *)
  let s_quarantine_streak, s_quarantine =
    match words (next_line cur) with
    | "quarantine" :: streak :: count :: rest ->
        let streak = parse_int streak in
        let count = parse_int count in
        if streak < 0 then raise (Bad "negative quarantine streak");
        if count < 0 then raise (Bad "negative quarantine length");
        if List.length rest <> count then
          raise (Bad "quarantine flag length mismatch");
        ( streak,
          Array.of_list
            (List.map
               (function
                 | "0" -> false
                 | "1" -> true
                 | w -> raise (Bad ("bad quarantine flag " ^ w)))
               rest) )
    | _ ->
        cur.pos <- cur.pos - 1;
        (0, Array.make (Array.length s_window) false)
  in
  let s_epoch_bin, s_epoch_due =
    match words (next_line cur) with
    | [ "epoch"; bin; "never" ] -> (parse_int bin, max_int)
    | [ "epoch"; bin; due ] -> (parse_int bin, parse_int due)
    | _ ->
        cur.pos <- cur.pos - 1;
        (0, max_int)
  in
  (* The refit incumbent postdates the resilience records; a checkpoint
     without it restores an engine whose next refit is cold. *)
  let s_fit_error =
    match words (next_line cur) with
    | [ "fit_error"; v ] -> Some (parse_float_hex v)
    | "fit_error" :: _ -> raise (Bad "bad fit_error record")
    | _ ->
        cur.pos <- cur.pos - 1;
        None
  in
  (* The settled refit postdates the incumbent; a checkpoint without it has
     none pending. *)
  let flag = function
    | "0" -> false
    | "1" -> true
    | w -> raise (Bad ("bad refit flag " ^ w))
  in
  let s_refit =
    match words (next_line cur) with
    | "refit" :: at :: epoch :: both :: f :: err :: count :: rest ->
        Some
          {
            Engine.r_at = parse_int at;
            r_epoch = flag epoch;
            r_both_basins = flag both;
            r_f = parse_float_hex f;
            r_mean_error = parse_float_hex err;
            r_preference = parse_floats (parse_int count) rest;
          }
    | "refit" :: _ -> raise (Bad "bad refit record")
    | _ ->
        cur.pos <- cur.pos - 1;
        None
  in
  (* Estimator-tagged engine state postdates the resilience records; peek
     like [frozen] so legacy checkpoints (and every native-ic file, which
     never carries the record) keep decoding. *)
  let s_estimator =
    match words (next_line cur) with
    | [ "estimator"; name; count ] ->
        let count = parse_int count in
        if count < 0 then raise (Bad "negative estimator slab count");
        let owner = unescape_counter_name name in
        let slabs =
          List.init count (fun _ ->
              match expect_key "slab" (words (next_line cur)) with
              | sname :: len :: floats ->
                  ( unescape_counter_name sname,
                    parse_floats (parse_int len) floats )
              | _ -> raise (Bad "bad estimator slab record"))
        in
        Some (Ic_estimation.Estimator.state_create ~owner slabs)
    | "estimator" :: _ -> raise (Bad "bad estimator record")
    | _ ->
        cur.pos <- cur.pos - 1;
        None
  in
  let n_counters =
    match expect_key "counters" (words (next_line cur)) with
    | [ v ] -> parse_int v
    | _ -> raise (Bad "bad counters record")
  in
  if n_counters < 0 then raise (Bad "negative counter count");
  let s_counters =
    List.init n_counters (fun _ ->
        match expect_key "c" (words (next_line cur)) with
        | [ name; v ] -> (unescape_counter_name name, parse_int v)
        | _ -> raise (Bad "bad counter record"))
  in
  if next_line cur <> "end" then raise (Bad "missing end marker");
  {
    Engine.s_bin;
    s_f;
    s_preference;
    s_fit_age;
    s_fit_error;
    s_degrade = { Degrade.s_level; s_streak; s_transitions; s_count };
    s_window;
    s_last_loads;
    s_have_last;
    s_consec_missing;
    s_counters;
    s_frozen;
    s_quarantine;
    s_quarantine_streak;
    s_epoch_bin;
    s_epoch_due;
    s_estimator;
    s_refit;
  }

let decode text =
  match decode_exn text with
  | s -> Ok s
  | exception Bad msg -> Error ("checkpoint: " ^ msg)

let save ~path engine =
  let text = encode (Engine.snapshot engine) in
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  (match output_string oc text with
  | () -> close_out oc
  | exception e ->
      close_out_noerr oc;
      raise e);
  Sys.rename tmp path

let load ~path ~config =
  if not (Sys.file_exists path) then
    Error (Printf.sprintf "checkpoint: no such file %s" path)
  else begin
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let text = really_input_string ic len in
    close_in ic;
    match decode text with
    | Error _ as e -> e
    | Ok snapshot -> begin
        match Engine.restore config snapshot with
        | engine -> Ok engine
        | exception Invalid_argument msg -> Error ("checkpoint: " ^ msg)
      end
  end
