"""Property test of the regex tree tokenizer against the character walk it replaced.

``reference_tokenize`` and ``ReferenceParser`` are copies of the tokenizer
and parser ``parse_tree`` used before it tokenized with one regex: a walk that
built one frozen ``Token`` per token and tracked line and column as it went.
Texts are the shipped tree, small trees and the malformed tree files, each
mutated by one to three inserted, deleted or replaced characters.  On every
text the two tokenizers must give the same tokens or the same ParseError (line,
column, message and expected), and ``parse_tree`` must give the same tree or
the same ParseError as the reference parser given the text with its line
breaks read as universal newlines read them: ``parse_tree`` counts a lone
carriage return as a line break, as ``check --tree`` on the same bytes does.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from shutter_sim import ParseError, bt, parse_tree, structural_signature
from shutter_sim.dsl import _MAX_DIGITS, _NODE_WORDS, _tokenize_tree

from conftest import MALFORMED_DIR, TREE_FILE

# the tree alphabet, the trace alphabet's symbols, other whitespace, and
# non-ASCII letters and digits: ٣ is a decimal digit, ² a digit, ½ numeric,
# é a letter, and neither \x0c nor \xa0 separates tokens
MUTATION_ALPHABET = " \t\r\n{}()*=[];_0123456789acdegilnoqrstuw#$-.٣²½é\x0c\xa0"
SYNTAX = set("{}()*=_0123456789")  # mutations land next to these half the time
SMALL_TREES = [
    "action idle",
    "action idle dur=3",
    "sequence* s { condition no_person action idle dur=12 }",
    "fallback f {\r\n  guard(no_hazard) g {\r\n    action announce\r\n  }\r\n}\r\n",
    "parallel p{condition a_1 guard(b)g{action c}}",
    "sequence é½ { action x² }",
    "action idle dur=" + "1" * (_MAX_DIGITS + 1),  # one digit too many
    "sequence a {\n" * 100 + "action idle\n" + "}\n" * 100,  # one level too deep
]

# every message the tokenizer and parser raise, a quoted word after an
# ``unknown node kind`` or ``unexpected character`` left out
READER_MESSAGES = {
    *(f"expected {sym!r}" for sym in "{()}="),
    *(f"expected {what}" for what in ("a node", "node name", "guard condition", "condition name",
                                      "behavior name", "a duration")),
    "composite requires at least one child", "unexpected end of input",
    "unexpected input after tree", "unknown node kind", "tree nested too deep",
    "unexpected character", "number too long",
}


# --- the tokenizer and parser, as they were ----------------------------------


@dataclass(frozen=True)
class Token:
    kind: str  # "ident" | "int" | "sym" | "eof"
    text: str
    line: int
    column: int


def reference_tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col, i = 1, 1, 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line, col, i = line + 1, 1, i + 1
        elif ch in " \t\r":
            col, i = col + 1, i + 1
        elif ch in "{}()*=":
            tokens.append(Token("sym", ch, line, col))
            col, i = col + 1, i + 1
        elif ch.isalpha() or ch == "_":
            start = i
            start_col = col
            while i < len(text) and (text[i].isalnum() or text[i] == "_"):
                i += 1
                col += 1
            tokens.append(Token("ident", text[start:i], line, start_col))
        elif "0" <= ch <= "9":
            start = i
            start_col = col
            while i < len(text) and "0" <= text[i] <= "9":
                i += 1
                col += 1
            if i - start > _MAX_DIGITS:
                raise ParseError(line, start_col, "number too long",
                                 expected=f"at most {_MAX_DIGITS} digits")
            tokens.append(Token("int", text[start:i], line, start_col))
        else:
            raise ParseError(line, col, f"unexpected character {ch!r}", expected=_NODE_WORDS)
    tokens.append(Token("eof", "", line, col))
    return tokens


class ReferenceParser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect_sym(self, ch: str) -> None:
        tok = self.advance()
        if tok.kind != "sym" or tok.text != ch:
            raise ParseError(tok.line, tok.column, f"expected {ch!r}", expected=ch)

    def expect_ident(self, what: str) -> Token:
        tok = self.advance()
        if tok.kind != "ident":
            raise ParseError(tok.line, tok.column, f"expected {what}", expected="identifier")
        return tok

    def parse_node(self, depth: int = 1) -> bt.Node:
        tok = self.advance()
        if tok.kind != "ident":
            raise ParseError(tok.line, tok.column, "expected a node", expected=_NODE_WORDS)
        if depth > 100:
            raise ParseError(tok.line, tok.column, "tree nested too deep",
                             expected="at most 100 levels")
        if tok.text in ("sequence", "fallback"):
            memory = False
            if self.peek().kind == "sym" and self.peek().text == "*":
                self.advance()
                memory = True
            name = self.expect_ident("node name").text
            children = self.parse_children(depth)
            cls = bt.Sequence if tok.text == "sequence" else bt.Fallback
            return cls(name, children, memory=memory)
        if tok.text == "parallel":
            name = self.expect_ident("node name").text
            return bt.Parallel(name, self.parse_children(depth))
        if tok.text == "guard":
            self.expect_sym("(")
            condition = self.expect_ident("guard condition").text
            self.expect_sym(")")
            name = self.expect_ident("node name").text
            self.expect_sym("{")
            child = self.parse_node(depth + 1)
            self.expect_sym("}")
            return bt.Guard(condition, name, child)
        if tok.text == "condition":
            return bt.Condition(self.expect_ident("condition name").text)
        if tok.text == "action":
            name = self.expect_ident("behavior name").text
            duration = None
            nxt = self.peek()
            if nxt.kind == "ident" and nxt.text == "dur":
                self.advance()
                self.expect_sym("=")
                dur_tok = self.advance()
                if dur_tok.kind != "int":
                    raise ParseError(dur_tok.line, dur_tok.column, "expected a duration",
                                     expected="integer")
                duration = int(dur_tok.text)
            return bt.Action(name, duration=duration)
        raise ParseError(tok.line, tok.column, f"unknown node kind {tok.text!r}",
                         expected=_NODE_WORDS)

    def parse_children(self, depth: int) -> list[bt.Node]:
        self.expect_sym("{")
        closer = self.peek()
        if closer.kind == "sym" and closer.text == "}":
            raise ParseError(closer.line, closer.column,
                             "composite requires at least one child", expected=_NODE_WORDS)
        children = []
        while not (self.peek().kind == "sym" and self.peek().text == "}"):
            if self.peek().kind == "eof":
                tok = self.peek()
                raise ParseError(tok.line, tok.column, "unexpected end of input", expected="}")
            children.append(self.parse_node(depth + 1))
        self.advance()  # the closing brace
        return children


def reference_parse_tree(text: str) -> bt.Node:
    parser = ReferenceParser(reference_tokenize(text))
    root = parser.parse_node()
    trailing = parser.peek()
    if trailing.kind != "eof":
        raise ParseError(trailing.line, trailing.column, "unexpected input after tree",
                         expected="end of input")
    return root


# --- inputs and outcomes -----------------------------------------------------


def tokens(text: str) -> list[Token]:
    """``_tokenize_tree``'s tokens in the reference's form, located by counting
    the newlines before each offset."""
    located = []
    for kind, word, offset in _tokenize_tree(text):
        line = text.count("\n", 0, offset) + 1
        column = offset - (text.rfind("\n", 0, offset) + 1) + 1
        located.append(Token("sym" if kind in "{}()*=" else kind, word, line, column))
    return located


def outcome(parse, text):
    """("ok", tokens or tree shape) or ("error", line, column, message, expected)."""
    try:
        result = parse(text)
    except ParseError as err:
        return ("error", err.line, err.column, err.message, err.expected)
    return ("ok", structural_signature(result) if isinstance(result, bt.Node) else result)


def mutate(rng: random.Random, text: str) -> str:
    near = [i for i, ch in enumerate(text) if ch in SYNTAX]
    i = rng.choice(near) + rng.randint(0, 1) if near and rng.random() < 0.5 else rng.randint(0, len(text))
    op = rng.choice(("insert", "delete", "replace"))
    if op == "insert" or i >= len(text):
        return text[:i] + rng.choice(MUTATION_ALPHABET) + text[i:]
    if op == "delete":
        return text[:i] + text[i + 1:]
    return text[:i] + rng.choice(MUTATION_ALPHABET) + text[i + 1:]


def seeded_texts(seed: int = 52807) -> list[str]:
    rng = random.Random(seed)
    bases = [TREE_FILE.read_text(encoding="utf-8"), *SMALL_TREES]
    bases += [p.read_text(encoding="utf-8") for p in sorted(MALFORMED_DIR.glob("*.tree"))]
    texts = []
    for base in bases:
        texts.append(base)
        for _ in range(1500 if base is bases[0] else 150):
            mutated = base
            for _ in range(rng.randint(1, 3)):
                mutated = mutate(rng, mutated)
            texts.append(mutated)
    return texts


# --- properties --------------------------------------------------------------


def test_the_reference_reads_the_documented_shapes():
    assert [t.text for t in reference_tokenize("a² 12x")] == ["a²", "12", "x", ""]
    assert outcome(reference_tokenize, "1٣")[:3] == ("error", 1, 2)
    assert outcome(reference_tokenize, "x ½y") == (
        "error", 1, 3, "unexpected character '½'", _NODE_WORDS)
    assert outcome(reference_tokenize, "a\r\n\t\xa0") == (
        "error", 2, 2, "unexpected character '\\xa0'", _NODE_WORDS)


def test_seeded_texts_tokenize_and_parse_as_the_reference_does():
    kinds = {"parsed": 0, "parse error": 0, "token error": 0}
    messages = set()
    for text in seeded_texts():
        expected_tokens = outcome(reference_tokenize, text)
        assert outcome(tokens, text) == expected_tokens, repr(text)
        expected = outcome(reference_parse_tree, text.replace("\r\n", "\n").replace("\r", "\n"))
        assert outcome(parse_tree, text) == expected, repr(text)
        if expected_tokens[0] == "error":
            kinds["token error"] += 1
        elif expected[0] == "error":
            kinds["parse error"] += 1
        else:
            kinds["parsed"] += 1
        if expected[0] == "error":
            message = expected[3]
            messages.add(message if message.startswith("expected") else message.split(" '")[0])
    # the draw must reach every outcome and every message the reader can raise
    assert kinds["parsed"] > 300
    assert kinds["parse error"] > 1000
    assert kinds["token error"] > 300
    assert messages == READER_MESSAGES
