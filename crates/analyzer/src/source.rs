//! Line/token-level source model.
//!
//! The lints do not need a full Rust parse: they operate on source text
//! with comments and literal *contents* blanked out (so a string holding
//! `"panic!("` never matches), with two per-line annotations recovered
//! during the blanking pass:
//!
//! * which lines sit inside a `#[cfg(test)]` item (tracked by
//!   `mark_items`, a bracket counter over the blanked text), and
//! * which escape markers are in force on each line (a marker covers its
//!   own line and the line directly below it).
//!
//! The escape spelling is `// odb-analyzer: allow(<lint>)`, shared by
//! every pass.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// One analyzed line of source.
#[derive(Debug, Clone)]
pub struct Line {
    /// Source text with comments and literal contents replaced by spaces;
    /// the delimiting quotes are kept so adjacent tokens do not merge.
    pub code: String,
    /// `true` when the line is inside a `#[cfg(test)]` item.
    pub in_test: bool,
    /// `odb-analyzer: allow(...)` lint names in force on this line.
    pub allows: Vec<String>,
}

impl Line {
    /// `true` when `lint` is allowed on this line by an escape comment.
    pub fn allows(&self, lint: &str) -> bool {
        self.allows.iter().any(|a| a == lint)
    }
}

/// A parsed source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the workspace root (slash-separated for display).
    pub rel_path: String,
    /// Analyzed lines, index 0 = line 1.
    pub lines: Vec<Line>,
}

impl SourceFile {
    /// Parses `text` into blanked, annotated lines.
    pub fn parse(rel_path: String, text: &str) -> SourceFile {
        let (blanked, comments) = blank_non_code(text);
        let mut allow_by_line: BTreeMap<usize, Vec<String>> = BTreeMap::new();
        for (line_idx, comment) in comments {
            for name in allow_markers(&comment) {
                // A marker covers its own line and the next one, so a
                // comment line directly above the offending code works.
                allow_by_line.entry(line_idx).or_default().push(name.clone());
                allow_by_line.entry(line_idx + 1).or_default().push(name);
            }
        }
        let code_lines: Vec<&str> = blanked.split('\n').collect();
        let in_test = mark_cfg_test(&code_lines);
        let lines = code_lines
            .iter()
            .enumerate()
            .map(|(i, code)| Line {
                code: (*code).to_owned(),
                in_test: in_test[i],
                allows: allow_by_line.remove(&i).unwrap_or_default(),
            })
            .collect();
        SourceFile { rel_path, lines }
    }

    /// Loads and parses the file at `abs`, reporting `rel_path` in output.
    pub fn load(abs: &Path, rel_path: String) -> Result<SourceFile, String> {
        let text = fs::read_to_string(abs)
            .map_err(|e| format!("reading {}: {e}", abs.display()))?;
        Ok(SourceFile::parse(rel_path, &text))
    }

    /// External `mod name;` declarations in non-test code, with the line
    /// they appear on. Inline `mod name { … }` bodies live in this file
    /// and need no resolution.
    pub fn external_mods(&self) -> Vec<(usize, String)> {
        let mut found = Vec::new();
        for (i, line) in self.lines.iter().enumerate() {
            let code = &line.code;
            let bytes = code.as_bytes();
            let mut search_from = 0;
            while let Some(pos) = code[search_from..].find("mod") {
                let at = search_from + pos;
                search_from = at + 3;
                // Word boundaries: reject `mod` inside a longer identifier.
                let before_ok = at == 0
                    || !(bytes[at - 1].is_ascii_alphanumeric() || bytes[at - 1] == b'_');
                let after = &code[at + 3..];
                if !before_ok || !after.starts_with(|c: char| c.is_whitespace()) {
                    continue;
                }
                let rest = after.trim_start();
                let ident: String = rest
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                    .collect();
                if ident.is_empty() {
                    continue;
                }
                let tail = rest[ident.len()..].trim_start();
                if tail.starts_with(';') {
                    found.push((i, ident));
                }
            }
        }
        found
    }
}

/// One crate directory under `crates/`.
#[derive(Debug)]
pub struct CrateModel {
    /// Directory name under `crates/` (e.g. `engine`, not `odb-engine`).
    pub name: String,
    /// Parsed files under `src/`, sorted by path for determinism.
    pub src_files: Vec<SourceFile>,
    /// Relative paths of all `.rs` files under `src/` (orphan detection).
    pub src_rs_paths: Vec<String>,
}

/// The whole workspace as the lints see it.
#[derive(Debug)]
pub struct WorkspaceModel {
    /// Workspace root directory.
    pub root: PathBuf,
    /// Crates under `crates/`, sorted by name.
    pub crates: Vec<CrateModel>,
    /// Every file path (relative) in the repository outside `.git`/`target`.
    pub all_files: Vec<String>,
}

impl WorkspaceModel {
    /// Walks `root` and parses every crate's `src/` tree.
    ///
    /// # Errors
    ///
    /// Errors when `root/crates` cannot be enumerated; unreadable
    /// individual files error too (a gate must not silently skip input).
    pub fn load(root: &Path) -> Result<WorkspaceModel, String> {
        let crates_dir = root.join("crates");
        let mut crates = Vec::new();
        let entries = fs::read_dir(&crates_dir)
            .map_err(|e| format!("reading {}: {e}", crates_dir.display()))?;
        let mut crate_dirs: Vec<PathBuf> = entries
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.is_dir() && p.join("Cargo.toml").is_file())
            .collect();
        crate_dirs.sort();
        for dir in crate_dirs {
            let name = dir
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            let src = dir.join("src");
            let mut src_files = Vec::new();
            let mut src_rs_paths = Vec::new();
            if src.is_dir() {
                let mut rs_files = Vec::new();
                walk_files(&src, &mut rs_files)?;
                rs_files.sort();
                for abs in rs_files {
                    let rel = rel_to(root, &abs);
                    if abs.extension().is_some_and(|e| e == "rs") {
                        src_rs_paths.push(rel.clone());
                        src_files.push(SourceFile::load(&abs, rel)?);
                    }
                }
            }
            crates.push(CrateModel {
                name,
                src_files,
                src_rs_paths,
            });
        }
        let mut all_files = Vec::new();
        let mut abs_all = Vec::new();
        walk_files_pruned(root, &mut abs_all)?;
        abs_all.sort();
        for abs in abs_all {
            all_files.push(rel_to(root, &abs));
        }
        Ok(WorkspaceModel {
            root: root.to_path_buf(),
            crates,
            all_files,
        })
    }

    /// The crate with directory name `name`, if present.
    pub fn get(&self, name: &str) -> Option<&CrateModel> {
        self.crates.iter().find(|c| c.name == name)
    }
}

fn rel_to(root: &Path, abs: &Path) -> String {
    let rel = abs.strip_prefix(root).unwrap_or(abs);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Recursively collects files under `dir`.
fn walk_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries =
        fs::read_dir(dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
    for entry in entries.filter_map(Result::ok) {
        let path = entry.path();
        if path.is_dir() {
            walk_files(&path, out)?;
        } else {
            out.push(path);
        }
    }
    Ok(())
}

/// Like [`walk_files`] but skips VCS and build-output directories.
fn walk_files_pruned(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries =
        fs::read_dir(dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
    for entry in entries.filter_map(Result::ok) {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == ".git" || name == "target" || name == ".claude" {
                continue;
            }
            walk_files_pruned(&path, out)?;
        } else {
            out.push(path);
        }
    }
    Ok(())
}

/// Extracts every escape marker's lint name from a comment. The
/// spelling is `odb-analyzer: allow(<name>)` (the space after the colon
/// is optional).
fn allow_markers(comment: &str) -> Vec<String> {
    let mut names = Vec::new();
    let mut from = 0;
    const KEY: &str = "allow(";
    while let Some(pos) = comment[from..].find(KEY) {
        let at = from + pos;
        from = at + KEY.len();
        // What sits before `allow(` decides whether this is a marker.
        if !comment[..at].trim_end().ends_with("odb-analyzer:") {
            continue;
        }
        let start = at + KEY.len();
        if let Some(end) = comment[start..].find(')') {
            let name = comment[start..start + end].trim();
            if !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_')
            {
                names.push(name.to_owned());
            }
        }
    }
    names
}

/// Replaces comment text and string/char literal contents with spaces,
/// returning the blanked text plus `(line_index, comment_text)` pairs for
/// marker extraction. Newlines are preserved so line numbers survive.
fn blank_non_code(text: &str) -> (String, Vec<(usize, String)>) {
    #[derive(PartialEq)]
    enum State {
        Code,
        LineComment,
        BlockComment(u32),
        Str,
        RawStr(u32),
    }
    let mut out = String::with_capacity(text.len());
    let mut comments: Vec<(usize, String)> = Vec::new();
    let mut cur_comment = String::new();
    let mut line = 0usize;
    let mut state = State::Code;
    let chars: Vec<char> = text.chars().collect();
    let mut i = 0;
    let flush = |comments: &mut Vec<(usize, String)>, cur: &mut String, line: usize| {
        if !cur.is_empty() {
            comments.push((line, std::mem::take(cur)));
        }
    };
    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        match state {
            State::Code => match c {
                '/' if next == Some('/') => {
                    state = State::LineComment;
                    out.push_str("  ");
                    i += 2;
                }
                '/' if next == Some('*') => {
                    state = State::BlockComment(1);
                    out.push_str("  ");
                    i += 2;
                }
                '"' => {
                    state = State::Str;
                    out.push('"');
                    i += 1;
                }
                'r' | 'b' if is_raw_string_start(&chars, i) => {
                    // r"…", r#"…"#, br#"…"# etc.: skip prefix up to the
                    // opening quote, counting hashes.
                    let mut j = i;
                    while chars.get(j) == Some(&'b') || chars.get(j) == Some(&'r') {
                        out.push(chars[j]);
                        j += 1;
                    }
                    let mut hashes = 0u32;
                    while chars.get(j) == Some(&'#') {
                        out.push('#');
                        hashes += 1;
                        j += 1;
                    }
                    out.push('"');
                    i = j + 1;
                    state = State::RawStr(hashes);
                }
                '\'' => {
                    // Char literal or lifetime. An escape, or a closing
                    // quote within two characters, means char literal.
                    if next == Some('\\') {
                        out.push_str("' '");
                        let mut j = i + 2;
                        // Skip the escape body to the closing quote.
                        while j < chars.len() && chars[j] != '\'' {
                            if chars[j] == '\n' {
                                break;
                            }
                            j += 1;
                        }
                        i = j + 1;
                    } else if chars.get(i + 2) == Some(&'\'') {
                        out.push_str("' '");
                        i += 3;
                    } else {
                        // Lifetime: emit as-is.
                        out.push('\'');
                        i += 1;
                    }
                }
                '\n' => {
                    out.push('\n');
                    line += 1;
                    i += 1;
                }
                _ => {
                    out.push(c);
                    i += 1;
                }
            },
            State::LineComment => {
                if c == '\n' {
                    flush(&mut comments, &mut cur_comment, line);
                    out.push('\n');
                    line += 1;
                    state = State::Code;
                } else {
                    cur_comment.push(c);
                    out.push(' ');
                }
                i += 1;
            }
            State::BlockComment(depth) => {
                if c == '*' && next == Some('/') {
                    if depth == 1 {
                        flush(&mut comments, &mut cur_comment, line);
                        state = State::Code;
                    } else {
                        state = State::BlockComment(depth - 1);
                    }
                    out.push_str("  ");
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    state = State::BlockComment(depth + 1);
                    out.push_str("  ");
                    i += 2;
                } else if c == '\n' {
                    flush(&mut comments, &mut cur_comment, line);
                    out.push('\n');
                    line += 1;
                    i += 1;
                } else {
                    cur_comment.push(c);
                    out.push(' ');
                    i += 1;
                }
            }
            State::Str => {
                if c == '\\' {
                    out.push_str("  ");
                    i += 2;
                    if chars.get(i - 1) == Some(&'\n') {
                        // Escaped newline inside a string literal.
                        out.pop();
                        out.pop();
                        out.push_str(" \n");
                        line += 1;
                    }
                } else if c == '"' {
                    out.push('"');
                    state = State::Code;
                    i += 1;
                } else {
                    if c == '\n' {
                        out.push('\n');
                        line += 1;
                    } else {
                        out.push(' ');
                    }
                    i += 1;
                }
            }
            State::RawStr(hashes) => {
                if c == '"' && raw_str_closes(&chars, i, hashes) {
                    out.push('"');
                    for _ in 0..hashes {
                        out.push('#');
                    }
                    i += 1 + hashes as usize;
                    state = State::Code;
                } else {
                    if c == '\n' {
                        out.push('\n');
                        line += 1;
                    } else {
                        out.push(' ');
                    }
                    i += 1;
                }
            }
        }
    }
    flush(&mut comments, &mut cur_comment, line);
    (out, comments)
}

/// `true` when `chars[i..]` starts a raw (byte) string literal and the
/// preceding character does not glue it into a longer identifier.
fn is_raw_string_start(chars: &[char], i: usize) -> bool {
    if i > 0 {
        let prev = chars[i - 1];
        if prev.is_ascii_alphanumeric() || prev == '_' {
            return false;
        }
    }
    let mut j = i;
    if chars.get(j) == Some(&'b') {
        j += 1;
    }
    if chars.get(j) != Some(&'r') {
        return false;
    }
    j += 1;
    while chars.get(j) == Some(&'#') {
        j += 1;
    }
    chars.get(j) == Some(&'"')
}

/// `true` when the quote at `chars[i]` is followed by `hashes` hashes.
fn raw_str_closes(chars: &[char], i: usize, hashes: u32) -> bool {
    (1..=hashes as usize).all(|k| chars.get(i + k) == Some(&'#'))
}

/// Marks which lines are inside a `#[cfg(test)]` item.
///
/// Limitation (documented in the README): a `#[cfg(test)] mod name;`
/// pointing at a separate file does not mark that file as test code; the
/// workspace keeps its tests inline, and the convention is enforced by
/// this very tool staying useful.
fn mark_cfg_test(code_lines: &[&str]) -> Vec<bool> {
    mark_items(code_lines, |line| {
        line.find("#[cfg(test)]")
            .or_else(|| line.find("#[cfg(any(test"))
    })
}

/// Marks the lines of every item that `start` finds, over blanked code.
/// `start` returns the byte offset at which an item begins on a line
/// (an attribute, or a `fn` head); it is not consulted inside an item,
/// so items do not nest.
///
/// An item ends at the first of:
/// * a `;` at the item's own nesting depth, counting `()`, `[]` and
///   `{}`;
/// * a `,` at that depth outside generic `<>` (a `<` glued to the
///   identifier before it) and before any `where` (whose commas
///   separate bounds);
/// * the close of its first `{}` body;
/// * the close of the enclosing bracket (a last field with no trailing
///   comma).
///
/// So a field, a struct-literal field and a match arm end at their
/// comma, while `fn f(a: u32, b: u32) { … }` runs to its closing brace.
pub(crate) fn mark_items(
    code_lines: &[&str],
    start: impl Fn(&str) -> Option<usize>,
) -> Vec<bool> {
    /// Nesting of the open item, relative to where it began.
    #[derive(Default)]
    struct Open {
        depth: i64,
        angles: i64,
        in_where: bool,
    }
    let mut out = vec![false; code_lines.len()];
    let mut open: Option<Open> = None;
    for (i, line) in code_lines.iter().enumerate() {
        let from = if open.is_some() {
            0
        } else if let Some(at) = start(line) {
            open = Some(Open::default());
            at
        } else {
            continue;
        };
        out[i] = true;
        let bytes = line.as_bytes();
        for j in from..bytes.len() {
            let Some(item) = open.as_mut() else { break };
            let prev = if j > 0 { bytes[j - 1] } else { b' ' };
            let ends = match bytes[j] {
                b'(' | b'[' | b'{' => {
                    item.depth += 1;
                    false
                }
                b')' | b']' => {
                    item.depth -= 1;
                    item.depth < 0
                }
                b'}' => {
                    item.depth -= 1;
                    item.depth <= 0
                }
                b'<' if item.depth == 0 && (is_ident_byte(prev) || prev == b':') => {
                    item.angles += 1;
                    false
                }
                b'>' if item.depth == 0 && item.angles > 0 && prev != b'-' && prev != b'=' => {
                    item.angles -= 1;
                    false
                }
                b'w' if item.depth == 0 && is_word_at(bytes, j, b"where") => {
                    item.in_where = true;
                    false
                }
                b';' => item.depth == 0,
                b',' => item.depth == 0 && item.angles == 0 && !item.in_where,
                _ => false,
            };
            if ends {
                open = None;
            }
        }
    }
    out
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// `true` when `word` starts at `bytes[at]` as a whole identifier.
fn is_word_at(bytes: &[u8], at: usize, word: &[u8]) -> bool {
    let end = at + word.len();
    bytes[at..].starts_with(word)
        && (at == 0 || !is_ident_byte(bytes[at - 1]))
        && bytes.get(end).is_none_or(|b| !is_ident_byte(*b))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> SourceFile {
        SourceFile::parse("test.rs".to_owned(), text)
    }

    #[test]
    fn comments_and_strings_are_blanked() {
        let f = parse("let x = \"unwrap()\"; // call unwrap()\nx.unwrap();\n");
        assert!(!f.lines[0].code.contains("unwrap"));
        assert!(f.lines[0].code.contains("let x = \""));
        assert!(f.lines[1].code.contains(".unwrap()"));
    }

    #[test]
    fn block_comments_nest_and_span_lines() {
        let f = parse("a /* x /* y */ panic!( */ b\n/* panic!(\nstill */ c\n");
        assert!(!f.lines[0].code.contains("panic"));
        assert!(f.lines[0].code.trim_end().ends_with('b'));
        assert!(!f.lines[1].code.contains("panic"));
        assert!(f.lines[2].code.contains('c'));
    }

    #[test]
    fn raw_strings_are_blanked() {
        let f = parse("let s = r#\"panic!(\"inner\")\"#; s.expect(\n");
        assert!(!f.lines[0].code.contains("panic"));
        assert!(f.lines[0].code.contains(".expect("));
    }

    #[test]
    fn char_literals_and_lifetimes() {
        let f = parse("fn f<'a>(x: &'a str) { let c = '\"'; let d = '\\''; }\n");
        // The double-quote char literal must not open a string state that
        // swallows the rest of the file.
        assert!(f.lines[0].code.contains("let d ="));
        assert!(f.lines[0].code.contains("'a"));
    }

    #[test]
    fn cfg_test_blocks_are_marked() {
        let text = "\
fn lib() { x.unwrap(); }
#[cfg(test)]
mod tests {
    fn t() { y.unwrap(); }
}
fn lib2() {}
";
        let f = parse(text);
        assert!(!f.lines[0].in_test);
        assert!(f.lines[1].in_test, "attribute line");
        assert!(f.lines[2].in_test);
        assert!(f.lines[3].in_test);
        assert!(f.lines[4].in_test);
        assert!(!f.lines[5].in_test, "code after the test mod");
    }

    #[test]
    fn cfg_test_field_ends_at_its_comma() {
        let text = "\
pub struct S {
    #[cfg(test)]
    probe: BTreeMap<u32, u32>,
    kept: u32,
}
pub fn lib() -> S {
    S {
        #[cfg(test)]
        probe: BTreeMap::new(),
        kept: 1,
    }
}
";
        let f = parse(text);
        let in_test: Vec<usize> = (0..f.lines.len())
            .filter(|&i| f.lines[i].in_test)
            .collect();
        assert_eq!(in_test, vec![1, 2, 7, 8], "only the attributes and their fields");
    }

    #[test]
    fn cfg_test_fn_runs_to_its_closing_brace() {
        let text = "\
#[cfg(test)]
fn helper<A, B>(a: A, b: B)
where
    A: Clone,
    B: Clone,
{
    x.unwrap();
}
fn lib() {}
";
        let f = parse(text);
        assert!((0..8).all(|i| f.lines[i].in_test));
        assert!(!f.lines[8].in_test);
    }

    #[test]
    fn cfg_test_without_body_does_not_leak() {
        let f = parse("#[cfg(test)]\nuse helper::*;\nfn lib() {}\n");
        assert!(f.lines[0].in_test);
        assert!(f.lines[1].in_test);
        assert!(!f.lines[2].in_test);
    }

    #[test]
    fn allow_markers_cover_their_line_and_the_next() {
        let text = "\
// odb-analyzer: allow(panic)
a.unwrap();
b.unwrap(); // odb-analyzer: allow(panic)
c.unwrap();
";
        let f = parse(text);
        assert!(f.lines[0].allows("panic"));
        assert!(f.lines[1].allows("panic"), "line under the comment");
        assert!(f.lines[2].allows("panic"), "trailing comment");
        // Line 3 is covered by the marker on line 2 (trailing markers
        // deliberately spill one line down; harmless in practice).
        assert!(!f.lines[3].allows("raw_time"));
    }

    #[test]
    fn only_the_odb_analyzer_spelling_is_a_marker() {
        let text = "\
// analyzer:allow(panic)
a.unwrap();
// odb-analyzer:allow(raw_time)
t();
";
        let f = parse(text);
        assert!(!f.lines[1].allows("panic"), "bare `analyzer:` is not a marker");
        assert!(f.lines[3].allows("raw_time"), "spaceless form");
    }

    #[test]
    fn external_mod_declarations_are_found() {
        let f = parse("pub mod queue;\nmod time;\nmod inline { }\n// mod ghost;\n");
        let mods: Vec<String> = f.external_mods().into_iter().map(|(_, m)| m).collect();
        assert_eq!(mods, vec!["queue".to_owned(), "time".to_owned()]);
    }

    #[test]
    fn string_escapes_do_not_desync_lines() {
        let f = parse("let s = \"a\\\"b\\\\\"; let t = 1;\nnext();\n");
        assert!(f.lines[0].code.contains("let t = 1;"));
        assert!(f.lines[1].code.contains("next();"));
    }
}
