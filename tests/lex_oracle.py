"""The character-by-character SQL lexer `sqlfront._lex` replaced by one
compiled regular expression, kept as the oracle of the differential test in
test_frontend.py.  It returns (kind, text, (line, col)) triples and raises
the same ParseErrors."""

from __future__ import annotations

from dersens.sqlfront import ParseError

_KEYWORDS = {
    "select", "from", "where", "as", "and", "or", "xor", "not", "in", "between",
    "like", "group", "by", "distinct", "case", "when", "then", "else", "end",
    "is", "null", "having", "order", "limit", "union", "join",
}

_TWO_CHAR = ("<=", ">=", "<>", "!=")


def lex(sql: str) -> list[tuple[str, str, tuple[int, int]]]:
    toks = []
    i, line, col = 0, 1, 1
    n = len(sql)

    def advance(k: int):
        nonlocal i, line, col
        for _ in range(k):
            if sql[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = sql[i]
        if ch.isspace():
            advance(1)
            continue
        if sql.startswith("--", i):
            while i < n and sql[i] != "\n":
                advance(1)
            continue
        pos = (line, col)
        if ch == "'":
            j = i + 1
            while j < n and sql[j] != "'":
                j += 1
            if j >= n:
                raise ParseError("unterminated string literal", pos)
            toks.append(("str", sql[i + 1 : j], pos))
            advance(j + 1 - i)
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and sql[i + 1].isdigit()):
            j = i
            while j < n and (sql[j].isdigit() or sql[j] in ".eE" or (sql[j] in "+-" and sql[j - 1] in "eE")):
                j += 1
            toks.append(("num", sql[i:j], pos))
            advance(j - i)
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (sql[j].isalnum() or sql[j] == "_"):
                j += 1
            word = sql[i:j]
            kind = "kw" if word.lower() in _KEYWORDS else "ident"
            toks.append((kind, word, pos))
            advance(j - i)
            continue
        two = sql[i : i + 2]
        if two in _TWO_CHAR:
            toks.append(("op", "<>" if two == "!=" else two, pos))
            advance(2)
            continue
        if ch in "()+-*/^,.;<>=":
            toks.append(("op", ch, pos))
            advance(1)
            continue
        raise ParseError("unexpected character", pos, ch)
    return toks
