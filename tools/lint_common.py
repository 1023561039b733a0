"""Shared machinery for the COTE source lints.

Both tree lints — tools/hotpath_lint.py (allocation purity of the hot
path) and tools/determinism_lint.py (nondeterminism sources on the
enumeration / merge / plan-choice / signature paths) — follow the same
discipline:

  * a hardcoded manifest maps translation units to the functions under
    contract (reviewed like code; a function cannot silently leave the
    contract by being renamed or deleted — stale entries are a hard
    configuration error, exit 2);
  * function bodies are located by a brace-counting parser over
    comment/string-stripped lines;
  * every rule has an escape hatch: a line (or its predecessor) carrying
    `// <tag>: <reason>` is exempt, and the reason is mandatory.

This module holds the shared parser, the Violation type, and the escape
annotation handling so the two lints cannot drift apart.

Manifest names may be qualified (`Memo::Find`) or unqualified (`Find`).
A qualified name matches only the definition of that class's member —
this is the stale-entry fix: an unqualified `F` in a file defining both
`A::F` and `B::F` keeps "passing" after one twin is deleted, because the
other still matches (tools/determinism_lint.py --selftest plants exactly
that file). Qualified entries track each definition individually.
"""

import re


def strip_comments_and_strings(line):
    """Removes // comments, string and char literals (keeps structure).

    Line-based by design: the codebase style keeps block comments on
    their own `/* ... */` lines or leading-`*` continuation lines, which
    the column-0 definition filter already rejects.
    """
    out = []
    i, n = 0, len(line)
    while i < n:
        c = line[i]
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break
        if c in "\"'":
            quote = c
            out.append(quote)
            i += 1
            while i < n and line[i] != quote:
                if line[i] == "\\":
                    i += 1
                i += 1
            out.append(quote)
            i += 1
            continue
        out.append(c)
        i += 1
    return "".join(out)


class Violation:
    def __init__(self, path, line_no, func, message, text):
        self.path = path
        self.line_no = line_no
        self.func = func
        self.message = message
        self.text = text.strip()

    def __str__(self):
        return (f"{self.path}:{self.line_no}: [{self.func}] {self.message}\n"
                f"    {self.text}")


def escape_annotation_re(tag):
    """Regex for the escape hatch `// <tag>: <reason>` (reason required)."""
    return re.compile(r"//\s*%s\s*:\s*\S" % re.escape(tag))


def is_escaped(lines, idx, annotation):
    """True if line idx or its predecessor carries the escape annotation."""
    return bool(annotation.search(lines[idx]) or
                (idx > 0 and annotation.search(lines[idx - 1])))


_CONTROL_KEYWORD = re.compile(
    r"\s*(?:if|for|while|switch|return|else|do|case)\b")


def _name_pattern(name):
    """Definition-site pattern for a manifest name.

    Qualified names (`Memo::Find`) must appear literally; unqualified
    names match with or without a one-level class qualifier.
    """
    if "::" in name:
        return re.compile(r"\b%s\s*\(" % re.escape(name))
    return re.compile(r"\b(?:[A-Za-z_][A-Za-z0-9_]*::)?%s\s*\("
                      % re.escape(name))


def find_functions(lines, wanted, allow_indented=False):
    """Yields (manifest_name, start_idx, end_idx) for wanted definitions.

    Brace-counting parser: a definition is a line mentioning `name(`
    whose statement ends with `{` rather than `;`. By default only
    column-0 lines qualify (file-scope definitions — the style the .cc
    files are written in); `allow_indented` additionally accepts indented
    definitions, which is what header-inline member functions need.

    Raises RuntimeError on unbalanced braces (configuration error).
    """
    spans = []
    i = 0
    n = len(lines)
    while i < n:
        stripped = strip_comments_and_strings(lines[i])
        matched = None
        candidate = bool(lines[i]) and not lines[i].lstrip().startswith(
            ("}", "#", "//", "/*", "*"))
        if candidate and not allow_indented:
            candidate = not lines[i][0].isspace()
        if candidate and not _CONTROL_KEYWORD.match(stripped):
            for name in wanted:
                if _name_pattern(name).search(stripped):
                    matched = name
                    break
        if matched is not None:
            # Scan forward to the first '{' or ';' that closes the
            # declarator (at paren depth 0).
            j = i
            paren = 0
            body_start = None
            is_decl_only = False
            while j < n:
                s = strip_comments_and_strings(lines[j])
                for k, ch in enumerate(s):
                    if ch == "(":
                        paren += 1
                    elif ch == ")":
                        paren -= 1
                    elif ch == ";" and paren == 0:
                        is_decl_only = True
                        break
                    elif ch == "{" and paren == 0:
                        body_start = (j, k)
                        break
                if body_start or is_decl_only:
                    break
                j += 1
            if is_decl_only or body_start is None:
                i += 1
                continue
            # Brace-count from body_start to the matching close.
            bj, bk = body_start
            brace = 0
            end = None
            for jj in range(bj, n):
                s = strip_comments_and_strings(lines[jj])
                start_k = bk if jj == bj else 0
                for ch in s[start_k:]:
                    if ch == "{":
                        brace += 1
                    elif ch == "}":
                        brace -= 1
                        if brace == 0:
                            end = jj
                            break
                if end is not None:
                    break
            if end is None:
                raise RuntimeError(
                    f"unbalanced braces scanning function '{matched}'")
            spans.append((matched, i, end))
            i = end + 1
            continue
        i += 1
    return spans


def scan_manifest_file(root, rel, wanted, allow_indented=False):
    """Loads one manifested file and locates its contracted functions.

    Returns (lines, spans, config_errors). Config errors — a missing
    file, a manifest name with no surviving definition (stale entry), or
    an unparseable body — must fail the lint with exit status 2: a
    rename or deletion can never silently turn a contract off.
    """
    errors = []
    path = root / rel
    if not path.exists():
        return [], [], [f"manifested file missing: {rel}"]
    lines = path.read_text().splitlines()
    try:
        spans = find_functions(lines, wanted, allow_indented=allow_indented)
    except RuntimeError as e:
        return lines, [], [f"{rel}: {e}"]
    found = {name for name, _, _ in spans}
    for name in wanted:
        if name not in found:
            errors.append(
                f"{rel}: manifested function '{name}' not found "
                f"(renamed or deleted? update the lint manifest)")
    return lines, spans, errors
