(* Checkpoint codec fuzzing: random snapshots — including NaN, infinities,
   negative zero, subnormals, and counter names chosen to break a
   line-oriented format (spaces, '=', newlines, '%', the empty string) —
   must round-trip encode -> decode losslessly; corrupted or truncated
   inputs must be rejected with [Error], never an exception. *)

module Engine = Ic_runtime.Engine
module Degrade = Ic_runtime.Degrade
module Checkpoint = Ic_runtime.Checkpoint
module Estimator = Ic_estimation.Estimator
module Tm = Ic_traffic.Tm

let bits = Int64.bits_of_float

(* --- generators ---------------------------------------------------------- *)

let nasty_floats =
  [|
    0.;
    -0.;
    1.;
    -1.5;
    Float.nan;
    Int64.float_of_bits 0x7ff8000000000001L (* NaN with a payload *);
    Float.infinity;
    Float.neg_infinity;
    Float.min_float;
    4.9e-324 (* smallest subnormal *);
    -4.9e-324;
    1.7976931348623157e308;
    1e-300;
    3.141592653589793;
  |]

let gen_float =
  QCheck2.Gen.(
    oneof
      [
        (let* i = int_range 0 (Array.length nasty_floats - 1) in
         return nasty_floats.(i));
        float;
        (* arbitrary bit patterns: every IEEE-754 payload must survive *)
        map Int64.float_of_bits int64;
      ])

(* Window TMs go through [Tm.of_vector_clamped] on decode, which zeroes
   strictly-negative entries by design; generate entries that are fixed
   points of the clamp (non-negative, -0., NaN, +inf) so the round trip
   must be exact. *)
let gen_window_float =
  QCheck2.Gen.(
    oneof
      [
        oneofl [ 0.; -0.; Float.nan; Float.infinity; 4.9e-324; 1e9 ];
        map Float.abs float;
      ])

let gen_counter_name =
  QCheck2.Gen.(
    oneof
      [
        oneofl
          [
            "";
            " ";
            "a b";
            "a=b";
            "line\nbreak";
            "tab\there";
            "cr\rhere";
            "100%";
            "%";
            "%%25";
            "trailing ";
            " leading";
            "plain_name";
          ];
        string_printable;
        string_of
          (oneofl [ ' '; '='; '\n'; '\t'; '%'; '\r'; 'a'; 'Z'; '0'; '\xff' ]);
      ])

(* Estimator owner and slab names are caller-chosen like counter names, so
   they draw from the same adversarial pool; payloads take the full nasty
   float range (NaN payloads, infinities, subnormals, arbitrary bits). *)
let gen_estimator_state =
  QCheck2.Gen.(
    let* owner = gen_counter_name in
    let* slabs =
      list_size (int_range 0 3)
        (pair gen_counter_name (list_size (int_range 0 5) gen_float))
    in
    return
      (Estimator.state_create ~owner
         (List.map (fun (k, v) -> (k, Array.of_list v)) slabs)))

let gen_level = QCheck2.Gen.(map Degrade.level_of_rank (int_range 0 3))

let gen_reason =
  QCheck2.Gen.oneofl
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

let gen_transition =
  QCheck2.Gen.(
    let* bin = int_range 0 10_000 in
    let* from_ = gen_level in
    let* to_ = gen_level in
    let* reason = gen_reason in
    return { Degrade.bin; from_; to_; reason })

let gen_snapshot =
  QCheck2.Gen.(
    let* n = int_range 1 4 in
    let* rows = int_range 1 8 in
    let* s_bin = int_range 0 100_000 in
    let* s_f = gen_float in
    let* s_preference =
      oneof
        [ return None; map Option.some (array_size (return (n * n)) gen_float) ]
    in
    let* s_fit_age = oneof [ return max_int; int_range 0 5_000 ] in
    let* s_fit_error = oneof [ return None; map Option.some gen_float ] in
    let* s_level = gen_level in
    let* s_streak = int_range 0 50 in
    let* s_transitions = list_size (int_range 0 6) gen_transition in
    (* The lifetime count may exceed the retained history (retention cap
       dropped the difference) but never fall below it. *)
    let* extra_dropped = int_range 0 1_000 in
    let s_count = List.length s_transitions + extra_dropped in
    let* window_len = int_range 0 3 in
    let* window_data =
      list_size (return window_len) (array_size (return (n * n)) gen_window_float)
    in
    let* s_last_loads = array_size (return rows) gen_float in
    let* s_have_last = bool in
    let* s_consec_missing = array_size (return rows) (int_range 0 20) in
    let* s_counters =
      list_size (int_range 0 8) (pair gen_counter_name (int_range 0 1_000_000))
    in
    let* s_frozen =
      oneof
        [
          return None;
          (let* lvl = gen_level in
           let* w = array_size (return (n * n)) gen_float in
           return (Some (lvl, w)));
        ]
    in
    let* s_quarantine = array_size (return window_len) bool in
    let* s_quarantine_streak = int_range 0 50 in
    let* s_epoch_bin = int_range 0 100_000 in
    let* s_epoch_due = oneof [ return max_int; int_range 0 100_000 ] in
    let* s_estimator =
      oneof [ return None; map Option.some gen_estimator_state ]
    in
    let* s_refit =
      oneof
        [
          return None;
          (let* r_at = int_range 0 100_000 in
           let* r_epoch = bool in
           let* r_both_basins = bool in
           let* r_f = gen_float in
           let* r_mean_error = gen_float in
           let* r_preference = array_size (int_range 1 4) gen_float in
           return
             (Some
                {
                  Engine.r_at;
                  r_epoch;
                  r_f;
                  r_preference;
                  r_mean_error;
                  r_both_basins;
                }));
        ]
    in
    return
      {
        Engine.s_bin;
        s_f;
        s_preference;
        s_fit_age;
        s_fit_error;
        s_degrade = { Degrade.s_level; s_streak; s_transitions; s_count };
        s_window = Array.of_list (List.map (Tm.of_vector_clamped n) window_data);
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
      })

(* --- exact snapshot equality (floats compared bitwise) ------------------- *)

let float_array_eq a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> bits x = bits y) a b

let snapshot_eq (a : Engine.snapshot) (b : Engine.snapshot) =
  a.s_bin = b.s_bin
  && bits a.s_f = bits b.s_f
  && (match (a.s_preference, b.s_preference) with
     | None, None -> true
     | Some p, Some q -> float_array_eq p q
     | _ -> false)
  && a.s_fit_age = b.s_fit_age
  && (match (a.s_fit_error, b.s_fit_error) with
     | None, None -> true
     | Some x, Some y -> bits x = bits y
     | _ -> false)
  && a.s_degrade.Degrade.s_level = b.s_degrade.Degrade.s_level
  && a.s_degrade.Degrade.s_streak = b.s_degrade.Degrade.s_streak
  && a.s_degrade.Degrade.s_transitions = b.s_degrade.Degrade.s_transitions
  && a.s_degrade.Degrade.s_count = b.s_degrade.Degrade.s_count
  && Array.length a.s_window = Array.length b.s_window
  && Array.for_all2
       (fun x y -> float_array_eq (Tm.unsafe_data x) (Tm.unsafe_data y))
       a.s_window b.s_window
  && float_array_eq a.s_last_loads b.s_last_loads
  && a.s_have_last = b.s_have_last
  && a.s_consec_missing = b.s_consec_missing
  && a.s_counters = b.s_counters
  && (match (a.s_frozen, b.s_frozen) with
     | None, None -> true
     | Some (la, wa), Some (lb, wb) -> la = lb && float_array_eq wa wb
     | _ -> false)
  && a.s_quarantine = b.s_quarantine
  && a.s_quarantine_streak = b.s_quarantine_streak
  && a.s_epoch_bin = b.s_epoch_bin
  && a.s_epoch_due = b.s_epoch_due
  && (match (a.s_estimator, b.s_estimator) with
     | None, None -> true
     | Some x, Some y -> Estimator.state_equal x y
     | _ -> false)
  && match (a.s_refit, b.s_refit) with
     | None, None -> true
     | Some x, Some y ->
         x.r_at = y.r_at && x.r_epoch = y.r_epoch
         && x.r_both_basins = y.r_both_basins
         && bits x.r_f = bits y.r_f
         && bits x.r_mean_error = bits y.r_mean_error
         && float_array_eq x.r_preference y.r_preference
     | _ -> false

(* --- properties ---------------------------------------------------------- *)

let test_roundtrip_lossless () =
  let prop s =
    match Checkpoint.decode (Checkpoint.encode s) with
    | Ok s' -> snapshot_eq s s'
    | Error e -> QCheck2.Test.fail_reportf "decode failed: %s" e
  in
  QCheck2.Test.check_exn
    (QCheck2.Test.make ~count:80 ~name:"encode -> decode is lossless"
       gen_snapshot prop)

let test_encode_canonical () =
  (* Decoding and re-encoding reproduces the bytes: the codec has one
     canonical form, so checkpoints can be compared as files. *)
  let prop s =
    let text = Checkpoint.encode s in
    match Checkpoint.decode text with
    | Ok s' -> Checkpoint.encode s' = text
    | Error e -> QCheck2.Test.fail_reportf "decode failed: %s" e
  in
  QCheck2.Test.check_exn
    (QCheck2.Test.make ~count:40 ~name:"encode is canonical" gen_snapshot prop)

let base_snapshot ?(counters = [ ("polls_total", 12) ]) () =
  {
    Engine.s_bin = 7;
    s_f = 0.35;
    s_preference = None;
    s_fit_age = max_int;
    s_fit_error = None;
    s_degrade =
      {
        Degrade.s_level = Degrade.Gravity;
        s_streak = 0;
        s_transitions = [];
        s_count = 0;
      };
    s_window = [||];
    s_last_loads = [| 1.5; 0. |];
    s_have_last = true;
    s_consec_missing = [| 0; 3 |];
    s_counters = counters;
    s_frozen = Some (Degrade.Closed_form, [| 0.5; 1.25 |]);
    s_quarantine = [||];
    s_quarantine_streak = 0;
    s_epoch_bin = 0;
    s_epoch_due = max_int;
    s_estimator = None;
    s_refit = None;
  }

let test_adversarial_names_unit () =
  List.iter
    (fun name ->
      let s = base_snapshot ~counters:[ (name, 5); ("plain", 1) ] () in
      match Checkpoint.decode (Checkpoint.encode s) with
      | Ok s' ->
          Alcotest.(check (list (pair string int)))
            (Printf.sprintf "counter name %S survives" name)
            [ (name, 5); ("plain", 1) ]
            s'.Engine.s_counters
      | Error e -> Alcotest.failf "decode failed for %S: %s" name e)
    [ ""; " "; "a b"; "a=b"; "x\ny"; "x\ry"; "x\ty"; "100%"; "%"; "%20"; "a % b" ]

let test_legacy_names_unescaped () =
  (* Plain names must serialize exactly as before the escaping existed:
     the v1 on-disk format for every checkpoint ever written is stable. *)
  let s = base_snapshot ~counters:[ ("ipf_iterations", 42) ] () in
  let text = Checkpoint.encode s in
  Alcotest.(check bool) "plain name stays a plain token" true
    (String.split_on_char '\n' text
    |> List.exists (( = ) "c ipf_iterations 42"));
  (* And a hand-written legacy-style checkpoint still loads. *)
  match Checkpoint.decode text with
  | Ok s' ->
      Alcotest.(check (list (pair string int)))
        "legacy decode" [ ("ipf_iterations", 42) ] s'.Engine.s_counters
  | Error e -> Alcotest.fail e

let test_legacy_no_frozen_record () =
  (* Checkpoints written before the fast path carry no "frozen" record;
     they must keep decoding, as unfrozen. *)
  let s = { (base_snapshot ()) with Engine.s_frozen = None } in
  let legacy =
    Checkpoint.encode s
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "frozen none")
    |> String.concat "\n"
  in
  match Checkpoint.decode legacy with
  | Ok s' ->
      Alcotest.(check bool) "legacy decodes unfrozen" true
        (s'.Engine.s_frozen = None && snapshot_eq s s')
  | Error e -> Alcotest.fail e

let test_legacy_no_resilience_records () =
  (* Checkpoints written before the anomaly gate / epoch refits carry no
     "quarantine" or "epoch" records and a single-count "transitions"
     line; they must keep decoding, with the gate quiescent. *)
  let s = base_snapshot () in
  let legacy =
    Checkpoint.encode s
    |> String.split_on_char '\n'
    |> List.filter_map (fun l ->
           match String.split_on_char ' ' l with
           | "quarantine" :: _ | "epoch" :: _ -> None
           | [ "transitions"; stored; _total ] ->
               Some ("transitions " ^ stored)
           | _ -> Some l)
    |> String.concat "\n"
  in
  match Checkpoint.decode legacy with
  | Ok s' ->
      Alcotest.(check bool) "legacy decodes with gate quiescent" true
        (snapshot_eq s s')
  | Error e -> Alcotest.fail e

let test_legacy_no_fit_error_record () =
  (* Checkpoints written before warm refits carry no "fit_error" record;
     they must keep decoding, with no incumbent (the next refit is cold). *)
  let s = { (base_snapshot ()) with Engine.s_fit_error = Some 0.2899 } in
  let text = Checkpoint.encode s in
  Alcotest.(check bool) "incumbent is one record" true
    (String.split_on_char '\n' text
    |> List.exists (( = ) ("fit_error " ^ Printf.sprintf "%016Lx" (bits 0.2899))));
  let legacy =
    String.split_on_char '\n' text
    |> List.filter (fun l ->
           match String.split_on_char ' ' l with
           | "fit_error" :: _ -> false
           | _ -> true)
    |> String.concat "\n"
  in
  Alcotest.(check string) "no incumbent encodes as before"
    (Checkpoint.encode (base_snapshot ()))
    legacy;
  match Checkpoint.decode legacy with
  | Ok s' ->
      Alcotest.(check bool) "legacy decodes without an incumbent" true
        (s'.Engine.s_fit_error = None && snapshot_eq (base_snapshot ()) s')
  | Error e -> Alcotest.fail e

(* An estimator-tagged base snapshot: adversarial owner and slab names plus
   NaN/inf payloads, so the truncation sweep also walks through the
   estimator records byte by byte. *)
let estimator_snapshot () =
  {
    (base_snapshot ()) with
    Engine.s_estimator =
      Some
        (Estimator.state_create ~owner:"integer tomography %"
           [
             ("", [| Float.nan; Float.infinity |]);
             ("unit s", [| -0.; 4.9e-324 |]);
             ("moments", [| 8.; Float.neg_infinity; 1e300; 0. |]);
           ]);
  }

let test_estimator_roundtrip_unit () =
  List.iter
    (fun owner ->
      let s =
        {
          (base_snapshot ()) with
          Engine.s_estimator =
            Some
              (Estimator.state_create ~owner
                 [ (owner, [| Float.nan |]); ("x y", [||]) ]);
        }
      in
      match Checkpoint.decode (Checkpoint.encode s) with
      | Ok s' ->
          Alcotest.(check bool)
            (Printf.sprintf "estimator name %S survives" owner)
            true (snapshot_eq s s')
      | Error e -> Alcotest.failf "decode failed for %S: %s" owner e)
    [ ""; " "; "a b"; "a=b"; "x\ny"; "100%"; "%"; "tomogravity-iterative" ]

let test_legacy_no_estimator_record () =
  (* Checkpoints written before the estimator seam carry no "estimator" or
     "slab" records; they must keep decoding, as the native ic path. *)
  let s = base_snapshot () in
  let text = Checkpoint.encode s in
  Alcotest.(check bool) "native encode has no estimator record" true
    (String.split_on_char '\n' text
    |> List.for_all (fun l ->
           match String.split_on_char ' ' l with
           | "estimator" :: _ | "slab" :: _ -> false
           | _ -> true));
  let stripped =
    Checkpoint.encode (estimator_snapshot ())
    |> String.split_on_char '\n'
    |> List.filter (fun l ->
           match String.split_on_char ' ' l with
           | "estimator" :: _ | "slab" :: _ -> false
           | _ -> true)
    |> String.concat "\n"
  in
  match Checkpoint.decode stripped with
  | Ok s' ->
      Alcotest.(check bool) "stripped record decodes as native ic" true
        (s'.Engine.s_estimator = None && snapshot_eq s s')
  | Error e -> Alcotest.fail e

let truncation_sweep s =
  let text = Checkpoint.encode s in
  let len = String.length text in
  (* Every strict prefix except "full text minus the final newline" must
     be a clean [Error] — and none may raise. *)
  for k = 0 to len - 2 do
    match Checkpoint.decode (String.sub text 0 k) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "truncation at %d of %d accepted" k len
  done;
  match Checkpoint.decode (String.sub text 0 (len - 1)) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "missing trailing newline rejected: %s" e

let test_truncation_rejected () =
  truncation_sweep (base_snapshot ());
  truncation_sweep { (base_snapshot ()) with Engine.s_fit_error = Some 0.2899 };
  truncation_sweep (estimator_snapshot ())

let test_malformed_floats_rejected () =
  let text = Checkpoint.encode (base_snapshot ()) in
  let f_hex = Printf.sprintf "%016Lx" (Int64.bits_of_float 0.35) in
  List.iter
    (fun bad ->
      let mangled =
        String.split_on_char '\n' text
        |> List.map (fun l -> if l = "f " ^ f_hex then "f " ^ bad else l)
        |> String.concat "\n"
      in
      match Checkpoint.decode mangled with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "bad float field %S accepted" bad)
    [
      "00000000000000" (* wrong length *);
      "0000000_00000000"
      (* '_' separators: Int64.of_string takes these; ours must not *);
      "zzzzzzzzzzzzzzzz";
      "0x00000000000000";
      "";
    ]

let test_bad_counter_escapes_rejected () =
  let s = base_snapshot ~counters:[ ("plain", 1) ] () in
  let text = Checkpoint.encode s in
  List.iter
    (fun bad_name ->
      let mangled =
        String.split_on_char '\n' text
        |> List.map (fun l -> if l = "c plain 1" then "c " ^ bad_name ^ " 1" else l)
        |> String.concat "\n"
      in
      match Checkpoint.decode mangled with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "bad escape %S accepted" bad_name)
    [ "%2"; "a%"; "a%zz"; "%g0" ]

let test_version_and_garbage_rejected () =
  List.iter
    (fun text ->
      match Checkpoint.decode text with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %S" text)
    [
      "";
      "not a checkpoint";
      "ic-runtime-checkpoint v2\nend\n";
      "ic-runtime-checkpoint v1\n";
    ]

let () =
  Alcotest.run "checkpoint-fuzz"
    [
      ( "roundtrip",
        [
          Alcotest.test_case "lossless (qcheck)" `Quick test_roundtrip_lossless;
          Alcotest.test_case "canonical encoding (qcheck)" `Quick
            test_encode_canonical;
          Alcotest.test_case "adversarial counter names" `Quick
            test_adversarial_names_unit;
          Alcotest.test_case "legacy names stay unescaped" `Quick
            test_legacy_names_unescaped;
          Alcotest.test_case "legacy checkpoint without frozen record" `Quick
            test_legacy_no_frozen_record;
          Alcotest.test_case "legacy checkpoint without resilience records"
            `Quick test_legacy_no_resilience_records;
          Alcotest.test_case "adversarial estimator names" `Quick
            test_estimator_roundtrip_unit;
          Alcotest.test_case "legacy checkpoint without estimator record"
            `Quick test_legacy_no_estimator_record;
          Alcotest.test_case "legacy checkpoint without fit_error record"
            `Quick test_legacy_no_fit_error_record;
        ] );
      ( "rejection",
        [
          Alcotest.test_case "every truncation is Error" `Quick
            test_truncation_rejected;
          Alcotest.test_case "malformed float fields" `Quick
            test_malformed_floats_rejected;
          Alcotest.test_case "malformed name escapes" `Quick
            test_bad_counter_escapes_rejected;
          Alcotest.test_case "version and garbage" `Quick
            test_version_and_garbage_rejected;
        ] );
    ]
