//! The SheetMusiq script language: a textual stand-in for the prototype's
//! mouse gestures, used by the REPL, the examples and the integration
//! tests. Every command maps 1:1 onto an interface action or algebra
//! operator, so a script is a faithful transcript of a direct-manipulation
//! session.

use crate::actions::{apply_action, HeaderToggles, UserAction};
use crate::menu::{context_menu, ClickTarget};
use crate::session::Session;
use spreadsheet_algebra::render::{render_table, render_tree};
use spreadsheet_algebra::{Direction, Result, SheetError};
use ssa_relation::agg::parse_agg_func;
use ssa_relation::expr_parse::parse_expr;
use ssa_relation::{Schema, Tuple, Value};

/// A scriptable session: the session plus the header-arrow state.
#[derive(Debug)]
pub struct ScriptHost {
    pub session: Session,
    pub toggles: HeaderToggles,
}

impl ScriptHost {
    pub fn new(session: Session) -> ScriptHost {
        ScriptHost {
            session,
            toggles: HeaderToggles::new(),
        }
    }

    /// Execute one command line; returns the text to print.
    pub fn execute(&mut self, line: &str) -> Result<String> {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return Ok(String::new());
        }
        let (cmd, rest) = match line.split_once(char::is_whitespace) {
            Some((c, r)) => (c, r.trim()),
            None => (line, ""),
        };
        match cmd.to_ascii_lowercase().as_str() {
            "help" => Ok(HELP.to_string()),
            "sql" => {
                // Run a core single-block SQL statement through the
                // Theorem-1 translation: the resulting spreadsheet (with
                // its grouping, aggregates and retained predicates all in
                // modifiable query state) becomes the current sheet.
                let stmt = ssa_sql::parse_select(rest).map_err(SheetError::from)?;
                let translated = ssa_sql::translate(&stmt, self.session.catalog())?;
                self.session
                    .adopt(spreadsheet_algebra::Engine::from_sheet(translated.sheet));
                self.after_change("SQL translated to spreadsheet operations")
            }
            "tables" => Ok(self.session.catalog().names().join("\n")),
            "load" => {
                self.session.load(rest)?;
                Ok(format!("loaded {rest}"))
            }
            "show" => {
                let view = self.session.engine()?.view()?;
                Ok(render_table(view))
            }
            "tree" => {
                let view = self.session.engine()?.view()?;
                Ok(render_tree(view))
            }
            "cols" => Ok(self.session.engine()?.sheet().visible().join(", ")),
            "select" => {
                let pred = parse_expr(rest)?;
                let id = self.session.engine()?.select(pred)?;
                self.after_change(&format!("selection #{id} applied"))
            }
            "group" | "regroup" => {
                let (col, dir) = column_and_direction(rest)?;
                let engine = self.session.engine()?;
                if cmd.eq_ignore_ascii_case("group") {
                    engine.group_add(&[&col], dir)?;
                } else {
                    engine.regroup(&[&col], dir)?;
                }
                self.after_change("grouped")
            }
            "ungroup" => {
                self.session.engine()?.ungroup()?;
                self.after_change("grouping removed")
            }
            "order" => {
                let mut parts: Vec<&str> = rest.split_whitespace().collect();
                let level = parts
                    .last()
                    .and_then(|p| p.parse::<usize>().ok())
                    .inspect(|_| {
                        parts.pop();
                    });
                let (col, dir) = column_and_direction(&parts.join(" "))?;
                let engine = self.session.engine()?;
                let level = level.unwrap_or_else(|| engine.sheet().state().spec.level_count());
                engine.order(&col, dir, level)?;
                self.after_change("ordered")
            }
            "sortclick" => {
                // The literal header-click gesture (toggles asc/desc).
                apply_action(
                    &mut self.session,
                    &mut self.toggles,
                    &UserAction::ClickHeader {
                        column: rest.to_string(),
                        level: None,
                    },
                )?;
                self.after_change("sorted")
            }
            "agg" => {
                let parts: Vec<&str> = rest.split_whitespace().collect();
                if parts.len() < 2 {
                    return Err(bad_args("agg <func> <column> [level]"));
                }
                let func = parse_agg_func(parts[0])?;
                let engine = self.session.engine()?;
                let level = parts
                    .get(2)
                    .and_then(|p| p.parse().ok())
                    .unwrap_or_else(|| engine.sheet().state().spec.level_count());
                let name = engine.aggregate(func, parts[1], level)?;
                self.after_change(&format!("created column {name}"))
            }
            "formula" => {
                let (name, expr_text) = match rest.split_once('=') {
                    Some((n, e)) if !n.trim().contains(' ') && !n.trim().is_empty() => {
                        (Some(n.trim()), e.trim())
                    }
                    _ => (None, rest),
                };
                let expr = parse_expr(expr_text)?;
                let name = self.session.engine()?.formula(name, expr)?;
                self.after_change(&format!("created column {name}"))
            }
            "project" => {
                self.session.engine()?.project_out(rest)?;
                self.after_change(&format!("projected out {rest}"))
            }
            "dropcol" => {
                // Cascaded removal of a computed column and everything
                // that depends on it (Sec. V-B).
                let plan = self
                    .session
                    .engine()?
                    .sheet_mut()
                    .remove_with_cascade(rest)?;
                self.after_change(&format!("{plan}"))
            }
            "plan" => {
                let plan = self.session.engine_ref()?.sheet().removal_plan(rest)?;
                Ok(plan.to_string())
            }
            "explain" => self.session.explain(),
            "feed" => {
                // One base row as comma-separated literals, e.g.
                // `feed 999, 'Jetta', 15500, 2005, 60000, 'Good'`.
                let vals = rest
                    .split(',')
                    .map(|v| parse_constant(v.trim()))
                    .collect::<Result<Vec<Value>>>()?;
                let action = UserAction::FeedRows {
                    rows: vec![Tuple::new(vals)],
                };
                apply_action(&mut self.session, &mut self.toggles, &action)?;
                self.after_change("row appended")
            }
            "delrows" => {
                let ids = rest
                    .split_whitespace()
                    .map(|t| t.parse().map_err(|_| bad_args("delrows <base-row-id>...")))
                    .collect::<Result<Vec<u32>>>()?;
                let n = ids.len();
                let action = UserAction::DeleteRows { ids };
                apply_action(&mut self.session, &mut self.toggles, &action)?;
                self.after_change(&format!("deleted {n} base row(s)"))
            }
            "setcell" => {
                let parts: Vec<&str> = rest.splitn(3, char::is_whitespace).collect();
                let [row, column, value] = parts.as_slice() else {
                    return Err(bad_args("setcell <base-row-id> <column> <literal>"));
                };
                let action = UserAction::EditCell {
                    row: row.parse().map_err(|_| bad_args("numeric base row id"))?,
                    column: column.to_string(),
                    value: parse_constant(value)?,
                };
                apply_action(&mut self.session, &mut self.toggles, &action)?;
                self.after_change(&format!("updated {column} of base row {row}"))
            }
            "reinstate" => {
                self.session.engine()?.reinstate(rest)?;
                self.after_change(&format!("reinstated {rest}"))
            }
            "dedup" => {
                self.session.engine()?.dedup()?;
                self.after_change("duplicates removed")
            }
            "rename" => {
                let parts: Vec<&str> = rest.split_whitespace().collect();
                if parts.len() != 2 {
                    return Err(bad_args("rename <old> <new>"));
                }
                self.session.engine()?.rename(parts[0], parts[1])?;
                self.after_change("renamed")
            }
            "save" => {
                self.session.save(rest)?;
                Ok(format!("saved as {rest}"))
            }
            "open" => {
                self.session.open(rest)?;
                Ok(format!("opened {rest}"))
            }
            "close" => {
                self.session.close();
                Ok("closed".to_string())
            }
            "stored" => Ok(self.session.stored_names().join("\n")),
            "product" => {
                self.session.product(rest)?;
                self.after_change("product applied")
            }
            "union" => {
                self.session.union(rest)?;
                self.after_change("union applied")
            }
            "minus" => {
                self.session.difference(rest)?;
                self.after_change("difference applied")
            }
            "join" => {
                let (name, cond) = rest
                    .split_once(" on ")
                    .ok_or_else(|| bad_args("join <stored> on <condition>"))?;
                let cond = parse_expr(cond.trim())?;
                self.session.join(name.trim(), cond)?;
                self.after_change("join applied")
            }
            "history" => Ok(self.session.engine()?.history().join("\n")),
            "state" => Ok(self.session.engine()?.sheet().state().describe().join("\n")),
            "undo" => {
                let steps = rest.parse().unwrap_or(1);
                let ops = self.session.engine()?.undo_steps(steps)?;
                Ok(ops
                    .iter()
                    .map(|o| format!("undid: {o}"))
                    .collect::<Vec<_>>()
                    .join("\n"))
            }
            "redo" => {
                let steps = rest.parse().unwrap_or(1);
                let ops = self.session.engine()?.redo_steps(steps)?;
                Ok(ops
                    .iter()
                    .map(|o| format!("redid: {o}"))
                    .collect::<Vec<_>>()
                    .join("\n"))
            }
            "modify" => {
                let (id, expr_text) = rest
                    .split_once(char::is_whitespace)
                    .ok_or_else(|| bad_args("modify <selection-id> <new predicate>"))?;
                let id: u64 = id.parse().map_err(|_| bad_args("numeric selection id"))?;
                let pred = parse_expr(expr_text)?;
                self.session.engine()?.replace_selection(id, pred)?;
                self.after_change("selection modified")
            }
            "unselect" => {
                let id: u64 = rest.parse().map_err(|_| bad_args("numeric selection id"))?;
                self.session.engine()?.remove_selection(id)?;
                self.after_change("selection removed")
            }
            "filters" => {
                // list predicates on a column (the modification dialog)
                let engine = self.session.engine()?;
                let entries = engine.sheet().state().selections_on(rest);
                Ok(entries
                    .iter()
                    .map(|s| s.to_string())
                    .collect::<Vec<_>>()
                    .join("\n"))
            }
            "menu" => {
                let stored = self.session.stored_names().len();
                let engine = self.session.engine_ref()?;
                let entries = context_menu(
                    engine.sheet(),
                    &ClickTarget::Cell {
                        column: rest.to_string(),
                    },
                    stored,
                )?;
                Ok(entries
                    .iter()
                    .map(|e| format!("{e:?}"))
                    .collect::<Vec<_>>()
                    .join("\n"))
            }
            other => Err(SheetError::Persist {
                message: format!("unknown command `{other}` (try `help`)"),
            }),
        }
    }

    /// Run a multi-line script, stopping at the first error.
    pub fn run_script(&mut self, script: &str) -> Result<Vec<String>> {
        script.lines().map(|l| self.execute(l)).collect()
    }

    fn after_change(&mut self, message: &str) -> Result<String> {
        // Direct manipulation: the updated sheet is always presented
        // immediately; here we confirm with the new row count.
        let n = self.session.engine()?.view()?.len();
        Ok(format!("{message} ({n} rows)"))
    }
}

/// Whether a script command mutates the *base data* (`feed`, `delrows`,
/// `setcell`, `rename`) or replaces the session's sheet outright (`load`,
/// `open`, `sql`). The server's read sessions share an immutable base
/// snapshot pinned to one hosted sheet, so both kinds must be rejected
/// there: base edits go through the sheet host's serialized writer, and
/// re-pointing the session would silently un-pin it from the snapshot.
pub fn is_write_command(line: &str) -> bool {
    let line = line.trim();
    let cmd = line
        .split_once(char::is_whitespace)
        .map_or(line, |(c, _)| c);
    matches!(
        cmd.to_ascii_lowercase().as_str(),
        "feed" | "delrows" | "setcell" | "rename" | "load" | "open" | "sql"
    )
}

fn column_and_direction(rest: &str) -> Result<(String, Direction)> {
    let parts: Vec<&str> = rest.split_whitespace().collect();
    match parts.as_slice() {
        [col] => Ok((col.to_string(), Direction::Asc)),
        [col, d] if d.eq_ignore_ascii_case("asc") => Ok((col.to_string(), Direction::Asc)),
        [col, d] if d.eq_ignore_ascii_case("desc") => Ok((col.to_string(), Direction::Desc)),
        _ => Err(bad_args("<column> [asc|desc]")),
    }
}

fn bad_args(usage: &str) -> SheetError {
    SheetError::Persist {
        message: format!("usage: {usage}"),
    }
}

/// Parse one constant value for the base-edit commands: any literal
/// expression (`15500`, `'Jetta'`, `-3.5`, `null`) — column references
/// fail against the empty schema.
fn parse_constant(text: &str) -> Result<Value> {
    let v = parse_expr(text)?.eval(&Schema::empty(), &Tuple::new(Vec::new()))?;
    Ok(v)
}

/// Help text for the REPL.
pub const HELP: &str = "\
SheetMusiq commands:
  tables | load <rel> | show | tree | cols | menu <col>
  select <pred> | filters <col> | modify <id> <pred> | unselect <id>
  group <col> [asc|desc] | regroup <col> [dir] | ungroup
  order <col> [dir] [level] | sortclick <col>
  agg <func> <col> [level] | formula [name =] <expr>
  project <col> | reinstate <col> | dedup | rename <old> <new>
  plan <computed-col> | dropcol <computed-col>   (cascaded removal)
  explain   (render the evaluation plan as a text tree)
  feed <v1, v2, ...> | delrows <base-row-id>... | setcell <row> <col> <value>
  save <name> | open <name> | close | stored
  product <name> | union <name> | minus <name> | join <name> on <cond>
  sql <core single-block SQL>   (Theorem-1 translation into the session)
  history | state | undo [n] | redo [n] | help";

#[cfg(test)]
mod tests {
    use super::*;
    use spreadsheet_algebra::fixtures::{dealers, used_cars};
    use ssa_relation::Catalog;

    fn host() -> ScriptHost {
        let mut c = Catalog::new();
        c.register(used_cars()).unwrap();
        c.register(dealers()).unwrap();
        ScriptHost::new(Session::new(c))
    }

    #[test]
    fn base_edit_commands_drive_the_feed_actions() {
        let mut h = host();
        h.execute("load cars").unwrap();
        h.execute("group Model asc").unwrap();
        h.execute("agg avg Price 2").unwrap();
        let out = h
            .execute("feed 999, 'Jetta', 15500, 2005, 60000, 'Good'")
            .unwrap();
        assert_eq!(out, "row appended (10 rows)");
        let out = h.execute("setcell 9 Price 15750").unwrap();
        assert_eq!(out, "updated Price of base row 9 (10 rows)");
        // The patched view is live: explain names the base-data delta.
        let explained = h.execute("explain").unwrap();
        assert!(explained.contains("cells updated (1)"), "{explained}");
        let out = h.execute("delrows 9").unwrap();
        assert_eq!(out, "deleted 1 base row(s) (9 rows)");
        // Bad literals and malformed ids report usage errors, not panics.
        assert!(h.execute("feed 1, Ghost").is_err());
        assert!(h.execute("delrows nine").is_err());
        assert!(h.execute("setcell 0 Price").is_err());
    }

    /// The last-delta line of `explain`.
    fn last_delta(h: &mut ScriptHost) -> String {
        let out = h.execute("explain").unwrap();
        out.lines()
            .find_map(|l| l.strip_prefix("last delta: "))
            .unwrap_or_else(|| panic!("no last delta in:\n{out}"))
            .to_string()
    }

    #[test]
    fn undoing_an_aggregate_keeps_the_cache() {
        let mut h = host();
        h.run_script(
            "load cars\n\
             select Price < 20000\n\
             agg avg Price\n\
             undo",
        )
        .unwrap();
        assert_eq!(last_delta(&mut h), "remove computed `Avg_Price`");
        h.execute("show").unwrap();
        assert!(h.execute("explain").unwrap().contains("failed patches: 0"));
        h.execute("redo").unwrap();
        assert_eq!(last_delta(&mut h), "append computed `Avg_Price`");
    }

    #[test]
    fn undoing_several_aggregates_then_selecting_patches_both() {
        // `undo 2` renders nothing, so the next gesture's view meets two
        // removed aggregates and an added selection at once.
        let mut h = host();
        h.run_script(
            "load cars\n\
             select Price < 20000\n\
             agg avg Price\n\
             agg sum Mileage\n\
             undo 2\n\
             select Year >= 2005",
        )
        .unwrap();
        assert_eq!(last_delta(&mut h), "narrow (1 predicate(s))");
        h.execute("unselect 1").unwrap();
        assert_eq!(last_delta(&mut h), "widen (selection #1 removed)");
        assert!(h.execute("explain").unwrap().contains("failed patches: 0"));
    }

    #[test]
    fn unselect_loosen_and_undone_select_take_the_widening_patch() {
        let mut h = host();
        h.run_script(
            "load cars\n\
             agg avg Price\n\
             select Price < 16000",
        )
        .unwrap();
        h.execute("modify 0 Price < 19000").unwrap();
        assert_eq!(last_delta(&mut h), "widen (selection #0 replaced)");
        h.execute("unselect 0").unwrap();
        assert_eq!(last_delta(&mut h), "widen (selection #0 removed)");
        h.execute("select Year >= 2005").unwrap();
        h.execute("undo").unwrap();
        assert_eq!(last_delta(&mut h), "widen (selection #1 removed)");
        h.execute("show").unwrap();
        assert!(h.execute("explain").unwrap().contains("failed patches: 0"));
    }

    #[test]
    fn undoing_a_feed_still_evaluates_in_full_and_says_why() {
        let mut h = host();
        h.run_script(
            "load cars\n\
             select Price < 20000\n\
             feed 999, 'Jetta', 15500, 2005, 60000, 'Good'\n\
             undo",
        )
        .unwrap();
        assert_eq!(
            last_delta(&mut h),
            "full (undo/redo restored a different base)"
        );
        let mut fresh = host();
        fresh.run_script("load cars\nselect Price < 20000").unwrap();
        assert_eq!(h.execute("show").unwrap(), fresh.execute("show").unwrap());
    }

    #[test]
    fn explain_renders_current_plan() {
        let mut h = host();
        h.run_script(
            "load cars\n\
             group Model desc\n\
             select Year >= 2005\n\
             agg avg Price 1\n\
             select Price <= Avg_Price",
        )
        .unwrap();
        let out = h.execute("explain").unwrap();
        assert!(out.contains("Scan cars"), "{out}");
        assert!(out.contains("Filter Year >= 2005"), "{out}");
        assert!(out.contains("Compute [Avg_Price]"), "{out}");
        assert!(out.contains("Group [Model]"), "{out}");
        // The Avg_Price selection ranks above the aggregate, so its
        // filter renders above the compute node.
        let f = out.find("Filter Price <= Avg_Price").unwrap();
        let c = out.find("Compute [Avg_Price]").unwrap();
        assert!(f < c, "selection over the aggregate stays above it:\n{out}");
    }

    #[test]
    fn sam_scenario_as_a_script() {
        // The running example of Sec. VI-A, as a transcript.
        let mut h = host();
        let out = h
            .run_script(
                "load cars\n\
                 group Model desc\n\
                 group Year\n\
                 select Condition = 'Good' OR Condition = 'Excellent'\n\
                 select Model = 'Jetta' OR Model = 'Civic'\n\
                 agg avg Price 3\n\
                 select Price <= Avg_Price\n\
                 show",
            )
            .unwrap();
        assert!(out[5].contains("created column Avg_Price"));
        let table = &out[7];
        assert!(table.contains("Avg_Price"));
    }

    #[test]
    fn tables_iv_v_modification_flow() {
        let mut h = host();
        h.execute("load cars").unwrap();
        let msg = h.execute("select Year = 2005").unwrap();
        assert!(msg.contains("selection #0"));
        h.execute("select Model = 'Jetta'").unwrap();
        h.execute("select Mileage < 80000").unwrap();
        h.execute("group Condition").unwrap();
        h.execute("order Price asc 2").unwrap();
        assert!(h.execute("show").unwrap().contains("872"));
        // the modification dialog lists the Year predicate
        let filters = h.execute("filters Year").unwrap();
        assert!(filters.contains("Year = 2005"));
        let out = h.execute("modify 0 Year = 2006").unwrap();
        assert!(out.contains("3 rows"));
        assert!(h.execute("show").unwrap().contains("723"));
    }

    #[test]
    fn binary_ops_via_script() {
        let mut h = host();
        h.run_script("load cars\nselect Model = 'Jetta'\nsave jettas\nload cars")
            .unwrap();
        let out = h.execute("minus jettas").unwrap();
        assert!(out.contains("3 rows"));
        let stored = h.execute("stored").unwrap();
        assert_eq!(stored, "jettas");
    }

    #[test]
    fn join_command() {
        let mut h = host();
        h.run_script("load dealers\nsave d\nload cars").unwrap();
        let out = h.execute("join d on Model = \"dealers.Model\"").unwrap();
        assert!(out.contains("12 rows"));
    }

    #[test]
    fn undo_redo_and_history() {
        let mut h = host();
        h.run_script("load cars\nselect Year = 2005\ndedup")
            .unwrap();
        let hist = h.execute("history").unwrap();
        assert!(hist.contains("1. Select"));
        assert!(hist.contains("2. Remove duplicates"));
        let undone = h.execute("undo 2").unwrap();
        assert!(undone.contains("undid"));
        let redone = h.execute("redo").unwrap();
        assert!(redone.contains("redid"));
    }

    #[test]
    fn sortclick_toggles() {
        let mut h = host();
        h.execute("load cars").unwrap();
        h.execute("sortclick Price").unwrap();
        let t1 = h.execute("show").unwrap();
        let first_asc = t1.lines().nth(2).unwrap().to_string();
        assert!(first_asc.contains("13500"));
        h.execute("sortclick Price").unwrap();
        let t2 = h.execute("show").unwrap();
        assert!(t2.lines().nth(2).unwrap().contains("18000"));
    }

    #[test]
    fn errors_are_reported_not_panicked() {
        let mut h = host();
        assert!(h.execute("show").is_err()); // no sheet yet
        h.execute("load cars").unwrap();
        assert!(h.execute("select Ghost = 1").is_err());
        assert!(h.execute("agg avg Model").is_err());
        assert!(h.execute("frobnicate").is_err());
        assert!(h.execute("join nothing").is_err());
        assert!(h.execute("rename onlyone").is_err());
        // the sheet survives all failed commands
        assert!(h.execute("show").unwrap().contains("Jetta"));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let mut h = host();
        let out = h.run_script("# a comment\n\nload cars").unwrap();
        assert_eq!(out[0], "");
        assert_eq!(out[1], "");
        assert!(out[2].contains("loaded"));
    }

    #[test]
    fn formula_with_and_without_name() {
        let mut h = host();
        h.execute("load cars").unwrap();
        let o1 = h.execute("formula PriceK = Price / 1000").unwrap();
        assert!(o1.contains("PriceK"));
        let o2 = h.execute("formula Price * 2").unwrap();
        assert!(o2.contains("created column F1"));
    }

    #[test]
    fn dropcol_cascades_through_script() {
        let mut h = host();
        h.run_script("load cars\ngroup Model\nagg avg Price 2\nselect Price < Avg_Price")
            .unwrap();
        let plan = h.execute("plan Avg_Price").unwrap();
        assert!(plan.contains("selection"));
        assert!(plan.contains("column Avg_Price"));
        let out = h.execute("dropcol Avg_Price").unwrap();
        assert!(out.contains("9 rows"));
        // plain remove of a depended-on column still refuses
        h.run_script("load cars\nagg avg Price 1\nselect Price < Avg_Price")
            .unwrap();
        assert!(h.execute("project Avg_Price").is_err());
    }

    #[test]
    fn sql_command_translates_into_modifiable_sheet() {
        let mut h = host();
        let out = h
            .execute("sql SELECT Model, AVG(Price) FROM cars GROUP BY Model ORDER BY Model")
            .unwrap();
        assert!(out.contains("9 rows")); // all tuples, aggregates repeated
                                         // the translation left real, modifiable query state behind:
        let state = h.execute("state").unwrap();
        assert!(state.contains("Avg_Price"), "{state}");
        // the grouping arrived too, so further direct manipulation works
        let out = h.execute("select Avg_Price > 15000").unwrap();
        assert!(out.contains("6 rows")); // the Jettas (avg 16333)
        assert!(h.execute("sql SELEC nope").is_err());
    }

    #[test]
    fn menu_command_lists_contextual_entries() {
        let mut h = host();
        h.execute("load cars").unwrap();
        let menu = h.execute("menu Price").unwrap();
        assert!(menu.contains("FilterByThisValue"));
        assert!(menu.contains("Aggregate"));
    }
}
