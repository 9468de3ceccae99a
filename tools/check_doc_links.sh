#!/bin/sh
# Check intra-repo markdown links in README.md, ROADMAP.md, and docs/*.md:
# every relative link target (after stripping a #fragment) must exist on
# disk, resolved against the linking file's directory. External links
# (http/https/mailto) and pure-fragment links are skipped. Also checks
# every *.md name cited in a source comment under src/ bench/ tests/
# tools/: a name with a directory resolves against the repo root, a bare
# name against the repo root or docs/. Exits non-zero listing every
# dangling reference; CI's docs job runs this on every push, and it is
# runnable locally from the repo root:
#
#   sh tools/check_doc_links.sh
set -u
cd "$(dirname "$0")/.." || exit 2

fail=0
checked=0
for f in README.md ROADMAP.md docs/*.md; do
  [ -f "$f" ] || continue
  dir=$(dirname "$f")
  # Markdown link targets: every "](target)" occurrence outside fenced
  # code blocks (a C++ lambda "[](...)" in a snippet is not a link). Repo
  # links never contain spaces or nested parens, so requiring a space-free
  # target and splitting on whitespace is safe here.
  for link in $(awk '/^```/ { in_code = !in_code; next } !in_code' "$f" |
                grep -o ']([^) ]*)' | sed 's/^](//;s/)$//'); do
    case "$link" in
      http://* | https://* | mailto:* | "#"*) continue ;;
    esac
    target=${link%%#*}
    [ -n "$target" ] || continue
    checked=$((checked + 1))
    if [ ! -e "$dir/$target" ]; then
      echo "dangling link in $f: $link"
      fail=1
    fi
  done
done

# Source comments: the text after the first "//" or "#", or a line that
# continues a /* */ block with "*", scanned for *.md names.
cited=$(grep -rnE '\.md' src bench tests tools | awk '
  {
    file = $0; sub(/:.*/, "", file)
    rest = substr($0, length(file) + 2)
    line = rest; sub(/:.*/, "", line)
    text = substr(rest, length(line) + 2)
    c = index(text, "//")
    h = index(text, "#")
    if (h > 0 && (c == 0 || h < c)) c = h
    if (c == 0 && text ~ /^[[:space:]]*\*/) c = 1
    if (c == 0) next
    text = substr(text, c)
    while (match(text, /[A-Za-z0-9_.\/-]+\.md([^A-Za-z0-9_]|$)/)) {
      name = substr(text, RSTART, RLENGTH)
      sub(/[^A-Za-z0-9_]$/, "", name)
      print file ":" line " " name
      text = substr(text, RSTART + RLENGTH)
    }
  }')
for name in $(printf '%s\n' "$cited" | awk 'NF { print $2 }' | sort -u); do
  checked=$((checked + 1))
  case "$name" in
    */*) [ -e "$name" ] && continue ;;
    *) { [ -e "$name" ] || [ -e "docs/$name" ]; } && continue ;;
  esac
  printf '%s\n' "$cited" | awk -v n="$name" '$2 == n {
    print "dangling doc reference in " $1 ": " n }'
  fail=1
done

if [ "$fail" -ne 0 ]; then
  echo "check_doc_links: FAILED"
  exit 1
fi
echo "check_doc_links: OK ($checked intra-repo links and cited docs resolve)"
