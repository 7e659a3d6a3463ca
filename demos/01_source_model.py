#!/usr/bin/env python3
"""Tour of the source model: tokenization, round-tripping, comment handling.

The whole toolkit rests on one guarantee: a line's tokens concatenate back to
the line, byte for byte, so a pass can rewrite the parts it understands and
flush everything else through untouched.
"""

from cpm import TokenKind, load_unit, render, tokenize_line

SAMPLE = """int main(void) {
    int x = 5;             /* plain C */
    watchdog = WD_ACTIVE;  // not yet special: no pass has claimed it
    return x;
}
"""


def show_tokens(raw):
    print(f"  {raw!r}")
    for tok in tokenize_line(raw):
        if tok.kind is not TokenKind.WHITESPACE:
            print(f"    {tok.kind.value:<11} {tok.lexeme!r} @ col {tok.column}")


def main():
    print("== tokenizing individual lines ==")
    show_tokens("int x = 5;")
    show_tokens("watchdog = WD_ACTIVE; // restart")
    show_tokens('msg = "redundant_t inside a string is just bytes";')

    print("\n== tokenization is total: weird bytes become punctuators ==")
    show_tokens("a @ \xe9 $")

    print("\n== units round-trip exactly ==")
    unit = load_unit(SAMPLE)
    assert render(unit) == SAMPLE
    print(f"  {len(unit.lines)} lines, render(load_unit(text)) == text: True")

    print("\n== multi-line block comments are tracked across lines ==")
    tricky = "/* comment opens here\n   redundant_t int x;  <- still comment\n*/ int real = 1;\n"
    unit = load_unit(tricky)
    for line_no, line in enumerate(unit.lines, 1):  # a line's number is its position
        kinds = {t.kind.value for t in line.tokens}
        print(f"  line {line_no}: starts_in_comment={line.in_block_comment} kinds={sorted(kinds)}")
    assert render(unit) == tricky


if __name__ == "__main__":
    main()
