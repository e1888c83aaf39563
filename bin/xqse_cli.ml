(* xqse — run XQSE programs (and plain XQuery) from the command line.

     xqse -e '{ return value "Hello, World"; }'
     xqse program.xqse
     xqse --lib defs.xqse -e 'local:fact(6)'
     echo '1 + 2' | xqse -                                            *)

open Core

let read_file path =
  if path = "-" then In_channel.input_all In_channel.stdin
  else In_channel.with_open_text path In_channel.input_all

(* One instrumentation handle per invocation: --trace attaches a stderr
   sink (text or JSON lines), --stats just records counters. Without
   either flag the shared disabled handle keeps the hot paths free. *)
let make_instr ~stats ~trace =
  if not stats && trace = None then Instr.disabled
  else begin
    let sink =
      match trace with
      | Some `Text -> Instr.Text (fun l -> Printf.eprintf "%s\n%!" l)
      | Some `Json -> Instr.Json (fun l -> Printf.eprintf "%s\n%!" l)
      | None -> Instr.Null
    in
    let i = Instr.create ~sink () in
    Instr.preregister i;
    Instr.enable i;
    i
  end

let run_program ~optimize ~stats ~trace ~ast ~explain ~libs source =
  if ast then
    (* parse (no execution) and dump the program back as surface syntax *)
    print_string
      (Xqse.Pretty.program
         (Xqse.Parse.parse_program (Xquery.Context.default_static ()) source))
  else if explain then begin
    (* optimize (no execution) and report the rewritten program plus what
       the optimizer did to it *)
    let session =
      Xqse.Session.create
        ~config:{ Xqse.Session.default_config with optimize }
        ()
    in
    List.iter (fun lib -> Xqse.Session.load_library session (read_file lib)) libs;
    let ex = Xqse.Session.explain session source in
    print_string ex.Xqse.Session.ex_program;
    List.iter (fun l -> Printf.printf "rewrite: %s\n" l) ex.Xqse.Session.ex_log;
    Printf.printf "stats: %s\n"
      (Xquery.Optimizer.stats_to_string ex.Xqse.Session.ex_stats)
  end
  else begin
    let instr = make_instr ~stats ~trace in
    let session =
      Xqse.Session.create
        ~config:{ Xqse.Session.default_config with optimize; instr }
        ()
    in
    List.iter (fun lib -> Xqse.Session.load_library session (read_file lib)) libs;
    let result = Xqse.Session.exec session source in
    print_endline (Xdm.Xml_serialize.seq_to_string result.Xqse.Session.r_value);
    if stats then print_string (Instr.render result.Xqse.Session.r_stats)
  end

(* A line-oriented REPL: input accumulates until a line ends with ';;'.
   Declaration-only programs install into the session and persist;
   programs with a body evaluate against everything loaded so far. *)
let repl ~optimize ~stats ~trace () =
  (* always record counters in a REPL so the [stats] command has data
     even without --stats; --stats additionally prints per-query deltas *)
  let instr = make_instr ~stats:true ~trace in
  let session =
      Xqse.Session.create
        ~config:{ Xqse.Session.default_config with optimize; instr }
        ()
    in
  Printf.printf
    "XQSE interactive session. End input with ';;'. Declarations persist.\n";
  let buf = Buffer.create 256 in
  let rec loop () =
    print_string (if Buffer.length buf = 0 then "xqse> " else "   -> ");
    flush stdout;
    match In_channel.input_line In_channel.stdin with
    | None -> print_newline ()
    | Some line ->
      let trimmed = String.trim line in
      let done_ =
        String.length trimmed >= 2
        && String.sub trimmed (String.length trimmed - 2) 2 = ";;"
      in
      Buffer.add_string buf line;
      Buffer.add_char buf '\n';
      if done_ then begin
        let src =
          let s = Buffer.contents buf in
          let s = String.trim s in
          String.sub s 0 (String.length s - 2)
        in
        Buffer.clear buf;
        if String.trim src <> "" then begin
          if String.trim src = "stats" then
            (* cumulative session counters, not one query's delta *)
            print_string (Instr.render (Instr.stats instr))
          else
            (try
               let prog =
                 Xqse.Parse.parse_program (Xquery.Context.default_static ()) src
               in
               if prog.Xqse.Stmt.prog_body = None then begin
                 Xqse.Session.load_library session src;
                 Printf.printf "declared.\n"
               end
               else begin
                 let r = Xqse.Session.exec session src in
                 print_endline
                   (Xdm.Xml_serialize.seq_to_string r.Xqse.Session.r_value);
                 if stats then print_string (Instr.render r.Xqse.Session.r_stats)
               end
             with
            | Xdm.Item.Error { code; message; _ } ->
              Printf.printf "error %s: %s\n" (Xdm.Qname.to_string code) message)
        end;
        loop ()
      end
      else loop ()
  in
  loop ()

let main expr files libs optimize stats trace ast explain interactive =
  if interactive then begin
    repl ~optimize ~stats ~trace ();
    `Ok ()
  end
  else
  let sources =
    (match expr with Some e -> [ e ] | None -> [])
    @ List.map read_file files
  in
  if sources = [] then `Error (true, "nothing to run: pass a file or -e EXPR")
  else
    try
      List.iter (run_program ~optimize ~stats ~trace ~ast ~explain ~libs) sources;
      `Ok ()
    with
    | Xdm.Item.Error { code; message; _ } ->
      `Error
        (false, Printf.sprintf "error %s: %s" (Xdm.Qname.to_string code) message)
    | Sys_error msg -> `Error (false, msg)

open Cmdliner

let expr =
  let doc = "Evaluate $(docv) instead of reading a file." in
  Arg.(value & opt (some string) None & info [ "e"; "eval" ] ~docv:"EXPR" ~doc)

let files =
  let doc = "XQSE program files to run ($(b,-) for stdin)." in
  Arg.(value & pos_all string [] & info [] ~docv:"FILE" ~doc)

let libs =
  let doc =
    "Load $(docv) as a library program (declarations only) before running."
  in
  Arg.(value & opt_all string [] & info [ "lib" ] ~docv:"LIB" ~doc)

let optimize =
  let doc =
    "Disable the rewrite optimizer: programs run exactly as written, with \
     no constant folding, let inlining, join detection or predicate \
     pushdown. Useful to isolate optimizer bugs — an optimized and an \
     unoptimized run of the same program must produce the same result."
  in
  Arg.(value & flag & info [ "no-optimize" ] ~doc)
  |> Term.app (Term.const not)

let stats =
  let doc =
    "Record execution counters (queries compiled, optimizer rewrites per \
     pass, SQL statements, rows scanned/fetched, web-service calls, XQSE \
     statements) and print the counter table after the result."
  in
  Arg.(value & flag & info [ "stats" ] ~doc)

let trace =
  let doc =
    "Stream the execution trace to stderr: hierarchical spans (compile, \
     run, per-query) plus fn:trace output and, together with the \
     optimizer, one note per rewrite. $(docv) is $(b,text) (indented \
     lines, the default) or $(b,json) (one JSON object per line)."
  in
  Arg.(
    value
    & opt ~vopt:(Some `Text)
        (some (enum [ ("text", `Text); ("json", `Json) ]))
        None
    & info [ "trace" ] ~docv:"FMT" ~doc)

let ast =
  let doc = "Parse only; print the program back as surface syntax." in
  Arg.(value & flag & info [ "ast" ] ~doc)

let explain =
  let doc =
    "Optimize only (no execution); print the rewritten program, one \
     $(b,rewrite:) line per optimizer rewrite ([name]-prefixed with the \
     enclosing declaration), and a $(b,stats:) summary."
  in
  Arg.(value & flag & info [ "explain" ] ~doc)

let interactive =
  let doc = "Start an interactive session (end each input with ';;')." in
  Arg.(value & flag & info [ "i"; "interactive" ] ~doc)

let cmd =
  let doc = "run XQSE (XQuery Scripting Extension) programs" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "XQSE extends XQuery 1.0 with statements: blocks, assignable \
         variables, while and iterate loops, if/then/else, try/catch, \
         procedures and update statements. This interpreter reproduces the \
         language described in the ICDE 2008 paper \"XQSE: An XQuery \
         Scripting Extension for the AquaLogic Data Services Platform\".";
    ]
  in
  Cmd.v
    (Cmd.info "xqse" ~version:"1.0.0" ~doc ~man)
    Term.(
      ret (
        const main $ expr $ files $ libs $ optimize $ stats $ trace $ ast
        $ explain $ interactive))

let () = exit (Cmd.eval cmd)
