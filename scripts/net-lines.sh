#!/bin/sh
# Net line count of the Rust sources changed since BASE (default HEAD):
# per changed `.rs` file under crates/, src/ and examples/, its non-test
# lines at BASE and in the working tree, then the totals of non-test and
# test lines over those files.
#
# Non-test lines are the lines before a file's first `#[cfg(test)]`
# module (an attribute directly above a `mod` item; a `#[cfg(test)]` on
# a single helper function does not end the non-test text). Every file
# under a tests/ or benches/ directory counts as test.
#
#   scripts/net-lines.sh [BASE]
set -eu
base=${1:-HEAD}
cd "$(git rev-parse --show-toplevel)"

# Non-test and total line counts ("N T") of the text on stdin, for the
# file named $1.
count() {
    case /$1 in
    */tests/* | */benches/*) awk 'END { print 0, NR }' ;;
    *) awk '!seen && attr && /^[[:space:]]*(pub[^[:space:]]*[[:space:]]+)?mod[[:space:]]/ {
                seen = 1; n = at
            }
            { attr = 0 }
            !seen && /^[[:space:]]*#\[cfg\(test\)\]/ { attr = 1; at = n }
            !seen { n++ }
            END { print n + 0, NR }' ;;
    esac
}

files=$({
    git diff --name-only "$base" -- 'crates/*.rs' 'src/*.rs' 'examples/*.rs'
    git ls-files --others --exclude-standard -- 'crates/*.rs' 'src/*.rs' 'examples/*.rs'
} | sort -u)

tb=0 ta=0 xb=0 xa=0
for f in $files; do
    set -- $(git show "$base:$f" 2>/dev/null | count "$f")
    nb=$1 lb=$2
    if [ -f "$f" ]; then set -- $(count "$f" <"$f"); else set -- 0 0; fi
    na=$1 la=$2
    printf '%-48s %6d -> %6d  (%+d)\n' "$f" "$nb" "$na" $((na - nb))
    tb=$((tb + nb)) ta=$((ta + na))
    xb=$((xb + lb - nb)) xa=$((xa + la - na))
done
printf '%-48s %6d -> %6d  (%+d)\n' "non-test total" "$tb" "$ta" $((ta - tb))
printf '%-48s %6d -> %6d  (%+d)\n' "test total" "$xb" "$xa" $((xa - xb))
