let with_out path f =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> f oc)

let with_in path f =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> f ic)

let split_line line = String.split_on_char ',' (String.trim line)

let read_table ~path =
  with_in path (fun ic ->
      let header = split_line (input_line ic) in
      let rows = ref [] in
      (try
         while true do
           let line = input_line ic in
           if String.trim line <> "" then
             rows := List.map float_of_string (split_line line) :: !rows
         done
       with End_of_file -> ());
      (header, List.rev !rows))

let write_series ~path series =
  with_out path (fun oc ->
      output_string oc "bin,origin,destination,bytes\n";
      let n = Series.size series in
      for k = 0 to Series.length series - 1 do
        let tm = Series.tm series k in
        for i = 0 to n - 1 do
          for j = 0 to n - 1 do
            let v = Tm.get tm i j in
            if v > 0. then Printf.fprintf oc "%d,%d,%d,%.17g\n" k i j v
          done
        done
      done)

let read_series ~path ~binning ~n =
  with_in path (fun ic ->
      ignore (input_line ic);
      let entries = ref [] in
      let max_bin = ref 0 in
      (try
         while true do
           let line = input_line ic in
           if String.trim line <> "" then begin
             match split_line line with
             | [ k; i; j; v ] ->
                 let k = int_of_string k in
                 if k > !max_bin then max_bin := k;
                 entries :=
                   (k, int_of_string i, int_of_string j, float_of_string v)
                   :: !entries
             | _ -> failwith "Csv_io.read_series: malformed row"
           end
         done
       with End_of_file -> ());
      let tms = Array.init (!max_bin + 1) (fun _ -> Tm.create n) in
      List.iter (fun (k, i, j, v) -> Tm.set tms.(k) i j v) !entries;
      Series.make binning tms)
