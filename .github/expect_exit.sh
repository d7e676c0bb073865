# Loaded into every bash step of the tests workflow through BASH_ENV.

expect_exit() {  # expect_exit N cmd...: run cmd, fail unless it exits N
  want=$1; shift
  rc=0
  "$@" || rc=$?
  echo "$* exit code: $rc"
  test "$rc" -eq "$want"
}
